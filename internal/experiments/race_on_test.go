//go:build race

package experiments

// raceEnabled reports whether the race detector is instrumenting this test
// binary; its runtime distorts throughput ratios and charges bookkeeping
// allocations, so performance assertions relax under it.
const raceEnabled = true

// The race run skips every wall-clock gate, so the dataplane sweep's extra
// trials would only lengthen a package run that already takes most of go
// test's default 10-minute timeout.
func init() { dataplaneTrials = 1 }
