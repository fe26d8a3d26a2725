//go:build !race

package tcam_test

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions are skipped under it (sync.Pool drops items at random).
const raceEnabled = false
