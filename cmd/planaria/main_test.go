package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"planaria/internal/experiments"
	"planaria/internal/fault"
)

// runCLI runs the command with stdout and stderr redirected to files and
// returns its exit code and what it wrote to stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = stdout, stderr
	code := run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	msg, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(msg)
}

// TestRunRejectsUnknownExperiment: a typo'd experiment name must fail
// before anything runs, naming the bad argument and the valid ones.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	code, msg := runCLI(t, "table1", "fig99")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, want := range []string{`"fig99"`, "table1", "autoscale", "all"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr missing %s:\n%s", want, msg)
		}
	}
}

// TestOutDirChaosDefaults: with no flag but -out, the chaos experiment
// runs DefaultChaosOptions and writes exactly its artifact.
func TestOutDirChaosDefaults(t *testing.T) {
	dir := t.TempDir()
	if code, msg := runCLI(t, "-out", dir, "chaos"); code != 0 {
		t.Fatalf("exit %d: %s", code, msg)
	}
	got, err := os.ReadFile(filepath.Join(dir, "BENCH_chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	suite, err := experiments.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.DefaultChaosOptions()
	rows, err := suite.ChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.ChaosJSON(o, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCH_chaos.json is not the DefaultChaosOptions artifact:\n%s", got)
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates("0, 10,40")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 10, 40}
	if len(got) != len(want) {
		t.Fatalf("parseRates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseRates = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "x", "-3", "1;2", "NaN", "nan", "Inf", "+Inf", "-Inf", "1,inf"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q) accepted", bad)
		}
	}
}

func TestParseChips(t *testing.T) {
	got, err := parseChips("1, 2,4", "-chips")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("parseChips = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseChips = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "x", "0", "-2", "1;2"} {
		if _, err := parseChips(bad, "-chips"); err == nil {
			t.Errorf("parseChips(%q) accepted", bad)
		}
	}
	// An empty list names the flag it came from.
	if _, err := parseChips(" , ", "-statics"); err == nil || !strings.Contains(err.Error(), "-statics") {
		t.Errorf("parseChips for -statics: error %v does not name -statics", err)
	}
}

func TestParsePolicies(t *testing.T) {
	all, err := parsePolicies("all")
	if err != nil || len(all) != 3 {
		t.Fatalf("parsePolicies(all) = %v, %v", all, err)
	}
	// Aliases canonicalize.
	got, err := parsePolicies("rr, jsq")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "round-robin" || got[1] != "least-work" {
		t.Fatalf("parsePolicies(rr, jsq) = %v", got)
	}
	for _, bad := range []string{"", "bogus", "round-robin,bogus"} {
		if _, err := parsePolicies(bad); err == nil {
			t.Errorf("parsePolicies(%q) accepted", bad)
		}
	}
}

// TestFaultsFlagParseError: a malformed -faults file must surface a
// parse error naming the offending construct, not a silent permanent
// fault (the schedule DSL rejects unknown fields for exactly this
// reason).
func TestFaultsFlagParseError(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	// "dur_ms" is the canonical typo for "for_ms".
	if err := os.WriteFile(bad, []byte(`{"units":16,"pods":4,"events":[{"at_ms":5,"kind":"subarray","unit":3,"dur_ms":4}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fault.ParseJSON(data); err == nil || !strings.Contains(err.Error(), "dur_ms") {
		t.Fatalf("bad schedule parsed without naming the typo: %v", err)
	}
	// The example schedule shipped in examples/ must stay valid.
	good, err := os.ReadFile("../../examples/chaos/faults.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := fault.ParseJSON(good)
	if err != nil {
		t.Fatalf("examples/chaos/faults.json: %v", err)
	}
	if len(s.Events) == 0 {
		t.Fatal("example schedule is empty")
	}
}
