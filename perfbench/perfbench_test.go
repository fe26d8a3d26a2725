package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload so one pass takes a fraction of a second, with
// a round on every tick so even a slow (race-detector) run measures some.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.PoolBatches = 8
	w.SetupReps = 1
	w.BlockTicks = 4
	w.Spacing, w.Staleness = w.TickPeriod, w.TickPeriod
	if w.PhaseLen > 0 {
		w.PhaseLen = 10 // two pacing periods
		w.WarmupTicks = w.PhaseLen
	} else {
		w.WarmupTicks = 2
	}
	return w
}

func TestWorkloadsTiny(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"skew-hot", "uniform-cold", "drift-churn"} {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			for _, run := range []func(context.Context, *workload, int64, time.Duration, *report) (*result, error){endToEnd, traced} {
				rep := &report{Failures: map[string]any{}}
				res, err := run(ctx, w, 3, 300*time.Millisecond, rep)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v, guards %v, failures %v", res, rep.Guards, rep.Failures)
				}
				if rep.Ticks == 0 || rep.TenantRounds == 0 {
					t.Fatalf("no measured work: %d ticks, %d rounds", rep.Ticks, rep.TenantRounds)
				}
				if rep.Failures["oracle_checks"].(int) == 0 {
					t.Fatal("no operand was checked against the oracle")
				}
			}
		})
	}
}

// TestOracleFlagsWrongResult corrupts the batch results a traced window
// returned and expects every sampled operand to count as a failure.
func TestOracleFlagsWrongResult(t *testing.T) {
	w := tiny(t, "drift-churn")
	in := generate(w, 5)
	p, err := start(context.Background(), w, in, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	defer p.sys.close()
	win := in.shift(nil, p.next)
	p.tracedWindow(win, -1)
	p.sample(win, p.next)
	if p.tl.oracleMismatches != 0 || p.tl.failed() != 0 {
		t.Fatalf("clean window: %d mismatches, %d failed", p.tl.oracleMismatches, p.tl.failed())
	}
	for _, dst := range p.sys.dst {
		for j := range dst {
			dst[j]++
		}
	}
	p.sample(win, p.next)
	want := len(w.Tenants) * w.SamplesPerTenant
	if p.tl.oracleMismatches != want || p.tl.failed() != uint64(want) {
		t.Fatalf("corrupted window: %d mismatches, %d failed, want %d", p.tl.oracleMismatches, p.tl.failed(), want)
	}
}

// TestOracleAgreesWithEngine resolves operands across the whole domain with
// the oracle and the engine, and expects a wrong result never to match.
func TestOracleAgreesWithEngine(t *testing.T) {
	w := tiny(t, "skew-hot")
	sys, err := newSystem(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	o := newOracle(sys.reg.Table().Entries())
	for _, tn := range sys.tenants {
		for x := uint64(0); x < 1<<16; x += 97 {
			got, err := tn.Unary().Engine().Eval(x)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := o.resolve(tn.Slice().ID(), x)
			if !ok || got != want {
				t.Fatalf("%s(%d): engine %d, oracle %d (found %v)", tn.Name(), x, got, want, ok)
			}
		}
	}
	if _, ok := o.resolve(255, 1); ok {
		t.Fatal("oracle resolved a tenant ID that owns no rows")
	}
}

// TestOutputMatchesBenchmarkJSON runs the command once per mode and checks
// that the last line carries exactly the metrics BENCHMARK.json declares.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full command")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, declared := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "drift-churn", "--seed", "7", "--seconds", "1", "--trace", []string{"0", "1"}[trace]}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("trace %d: incorrect run: %s", trace, lines[0])
		}
		var want, got []string
		for _, m := range declared {
			want = append(want, m.Name+" "+m.Unit)
		}
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, ",") != strings.Join(got, ",") {
			t.Fatalf("trace %d metrics\n got %v\nwant %v", trace, got, want)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "skew-hot", "--trace", "2"},
		{"--workload", "skew-hot", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestTailValue(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	if got, pct := tailValue(v); got != 90 || pct != 90 {
		t.Fatalf("100 samples: %v at p%v, want 90 at p90", got, pct)
	}
	if got, pct := tailValue(v[:5]); got != 5 || pct != 100 {
		t.Fatalf("5 samples: %v at p%v, want the maximum", got, pct)
	}
	// Five segments of 100: the third segment's p90 is the median.
	var run []float64
	for s := 0; s < tailSegments; s++ {
		for i := 1; i <= 100; i++ {
			run = append(run, float64(100*s+i))
		}
	}
	if got, pct, per := segmentedTail(run); got != 290 || pct != 90 || per != 100 {
		t.Fatalf("segmented: %v at p%v over %d, want 290 at p90 over 100", got, pct, per)
	}
}
