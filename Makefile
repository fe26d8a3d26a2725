GO ?= go

.PHONY: all build test test-short vet bench bench-json bench-compare chaos experiments examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Fault-injected Fig 8 soak: reconvergence and transactional-round
# invariants under the default and outage chaos profiles, repeated.
chaos:
	$(GO) test -run TestChaos -count=3 -v ./internal/experiments

# The design-choice ablations (ablation_bench_test.go).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' .

# The nine committed BENCH_*.json baselines. A built binary carries the
# vcs.revision stamp each file's env block records; `go run` does not.
BENCHES = lookup round tenant dataplane recovery tiered fabric serve cache
bench-json:
	$(GO) build -o .bench_build/adabench ./cmd/adabench
	.bench_build/adabench -out . $(BENCHES)

# A/B comparison capture for benchstat. Run once before a change and once
# after, then diff:
#   make bench-compare OUT=before.txt
#   ...edit...
#   make bench-compare OUT=after.txt
#   benchstat before.txt after.txt
# (benchstat: go run golang.org/x/perf/cmd/benchstat@latest works too.)
OUT ?= bench.txt
bench-compare:
	$(GO) test -bench . -benchmem -count 6 -run '^$$' ./internal/tcam ./internal/core ./internal/experiments | tee $(OUT)

# Regenerate every evaluation table/figure as text.
experiments:
	$(GO) run ./cmd/adabench all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ratelimiter
	$(GO) run ./examples/rcp
	$(GO) run ./examples/heavyhitter
	$(GO) run ./examples/multitenant

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
