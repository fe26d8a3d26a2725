package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/ada-repro/ada/internal/experiments"
)

func TestRunnersRegistered(t *testing.T) {
	want := []string{"cache", "dataplane", "fabric", "fig1a", "fig1b", "fig1c", "fig5",
		"fig6", "fig7a", "fig7b", "fig7c", "fig8", "fig9", "fig10", "lookup",
		"recovery", "round", "serve", "table2", "tenant", "tiered", "xcp"}
	for _, name := range want {
		if _, ok := runners[name]; !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	if len(runners) != len(want) {
		t.Errorf("runner count = %d, want %d", len(runners), len(want))
	}
}

func TestRunFastExperiments(t *testing.T) {
	// The fast experiments must produce non-empty tables through the same
	// path main uses.
	for _, name := range []string{"fig1c", "fig6", "fig7b", "table2"} {
		out, _, err := runners[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) == 0 {
			t.Errorf("%s: empty output", name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"nope"}, ""); !errors.As(err, new(usageError)) {
		t.Errorf("unknown experiment: got %v, want a usage error", err)
	}
}

// TestRunRejectsBeforeRunning swaps a recording runner in for fig7b and
// checks that bad input fails as a usage error before any experiment runs.
func TestRunRejectsBeforeRunning(t *testing.T) {
	ran := 0
	orig := runners["fig7b"]
	runners["fig7b"] = func() (string, any, error) { ran++; return "", nil, nil }
	t.Cleanup(func() { runners["fig7b"] = orig })

	dir := t.TempDir()
	tests := []struct {
		name  string
		names []string
		out   string
	}{
		{"unknown name after a good one", []string{"fig7b", "nope"}, ""},
		{"missing out dir", []string{"fig7b"}, filepath.Join(dir, "missing")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.names, tt.out); !errors.As(err, new(usageError)) {
				t.Errorf("got %v, want a usage error", err)
			}
		})
	}
	if ran != 0 {
		t.Errorf("fig7b ran %d times on rejected input, want 0", ran)
	}
	if err := run([]string{"fig7b"}, dir); err != nil || ran != 1 {
		t.Errorf("good input: err %v, ran %d, want nil, 1", err, ran)
	}
}

// TestRunWritesArtefacts runs two fast benchmarks and one figure with -out
// and decodes each file back into its envelope and typed result.
func TestRunWritesArtefacts(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"recovery", "tiered", "fig7b"}, dir); err != nil {
		t.Fatal(err)
	}
	decode := func(name string, result any) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Env    map[string]any  `json:"env"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(env.Env) == 0 {
			t.Errorf("%s: empty env block", name)
		}
		for _, k := range []string{"go_version", "num_cpu", "gomaxprocs", "revision", "modified"} {
			if _, ok := env.Env[k]; !ok {
				t.Errorf("%s: env lacks %q", name, k)
			}
		}
		if err := json.Unmarshal(env.Result, result); err != nil {
			t.Fatalf("%s result: %v", name, err)
		}
	}
	var recovery []experiments.RecoveryBenchRow
	decode("recovery", &recovery)
	var tiered []experiments.TieredBenchRow
	decode("tiered", &tiered)
	if len(recovery) == 0 || len(tiered) == 0 {
		t.Errorf("empty results: %d recovery rows, %d tiered rows", len(recovery), len(tiered))
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("wrote %v, want only the two benchmark files", files)
	}
}

func TestValidateFlags(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.json")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		parallel int
		out      string
		wantErr  bool
	}{
		{"all cores", 0, "", false},
		{"sequential", 1, "", false},
		{"many workers", 64, "", false},
		{"negative workers", -1, "", true},
		{"very negative workers", -128, "", true},
		{"existing out dir", 0, dir, false},
		{"missing out dir", 0, filepath.Join(dir, "missing"), true},
		{"out is a file", 0, file, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateFlags(tt.parallel, tt.out)
			if (err != nil) != tt.wantErr {
				t.Errorf("validateFlags(%d, %q) = %v, wantErr %v", tt.parallel, tt.out, err, tt.wantErr)
			}
		})
	}
}
