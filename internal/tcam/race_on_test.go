//go:build race

package tcam_test

const raceEnabled = true
