package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: analogflow
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkUpdateResolve/dinic-8         	       5	   1804153 ns/op	    932659 cold-ns/step	         1.900 speedup	    490000 warm-ns/step
BenchmarkUpdateResolve/dinic-8         	       5	   1904153 ns/op	    952659 cold-ns/step	         2.100 speedup	    470000 warm-ns/step
BenchmarkUpdateResolve/dinic-8         	       5	   1704153 ns/op	    912659 cold-ns/step	         2.000 speedup	    450000 warm-ns/step
BenchmarkDecomposeScaling/regions=2-8  	       1	  52336591 ns/op	        13.00 iterations	         0 rel-err-%	         2.000 regions
PASS
ok  	analogflow	0.167s
`

func TestParseBenchOutput(t *testing.T) {
	runs, err := parseBenchOutput([]byte(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("parsed %d runs, want 4", len(runs))
	}
	first := runs[0]
	if first.name != "BenchmarkUpdateResolve/dinic" {
		t.Errorf("name %q, want the -8 suffix stripped", first.name)
	}
	if first.iters != 5 || first.nsPerOp != 1804153 {
		t.Errorf("iters/ns parsed wrong: %+v", first)
	}
	if first.metrics["speedup"] != 1.9 || first.metrics["cold-ns/step"] != 932659 {
		t.Errorf("metrics parsed wrong: %+v", first.metrics)
	}
}

func TestAggregateMedians(t *testing.T) {
	runs, err := parseBenchOutput([]byte(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	results := aggregate(runs)
	if len(results) != 2 {
		t.Fatalf("aggregated %d entries, want 2", len(results))
	}
	upd := results[0]
	if upd.Benchmark != "BenchmarkUpdateResolve/dinic" || upd.Runs != 3 {
		t.Fatalf("unexpected first entry: %+v", upd)
	}
	if upd.NsPerOp != 1804153 {
		t.Errorf("median ns/op %v, want 1804153", upd.NsPerOp)
	}
	if upd.Metrics["speedup"] != 2.0 {
		t.Errorf("median speedup %v, want 2.0", upd.Metrics["speedup"])
	}
	dec := results[1]
	if dec.Benchmark != "BenchmarkDecomposeScaling/regions=2" || dec.Metrics["rel-err-%"] != 0 {
		t.Errorf("unexpected second entry: %+v", dec)
	}
}

// TestRunParseMode drives the command end to end in -parse mode: saved
// benchmark output in, JSON trajectory file out.
func TestRunParseMode(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.json")
	var stdout bytes.Buffer
	// The sample holds two of the five canonical series, so the expectation
	// must be scoped to them — the full canonical set is the missing-sample
	// test below.
	bench := "^(BenchmarkUpdateResolve|BenchmarkDecomposeScaling)$"
	if err := run([]string{"-parse", in, "-out", out, "-bench", bench, "-label", "r1"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "wrote 2 benchmark entries") {
		t.Errorf("summary missing: %q", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, data)
	}
	if traj.Label != "r1" {
		t.Errorf("label %q, want r1", traj.Label)
	}
	if len(traj.Results) != 2 || traj.Results[0].Metrics["warm-ns/step"] != 470000 {
		t.Errorf("round-tripped results wrong: %+v", traj.Results)
	}
	if len(traj.History) != 1 || traj.History[0].Label != "r1" {
		t.Errorf("history wrong: %+v", traj.History)
	}
}

// TestRunAppendsHistory pins the trajectory accumulation: repeated runs
// append one history entry per distinct label, and a rerun under the same
// label replaces its entry.
func TestRunAppendsHistory(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.json")
	bench := "^(BenchmarkUpdateResolve|BenchmarkDecomposeScaling)$"
	var stdout bytes.Buffer
	for _, label := range []string{"sha1", "sha2", "sha2"} {
		if err := run([]string{"-parse", in, "-out", out, "-bench", bench, "-label", label}, &stdout); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, data)
	}
	if traj.Label != "sha2" {
		t.Errorf("label %q, want sha2", traj.Label)
	}
	want := []string{"sha1", "sha2"}
	if len(traj.History) != len(want) {
		t.Fatalf("history has %d entries (%+v), want labels %v", len(traj.History), traj.History, want)
	}
	for i, w := range want {
		if traj.History[i].Label != w {
			t.Errorf("history[%d].Label = %q, want %q", i, traj.History[i].Label, w)
		}
	}
	if len(traj.History[1].Results) != 2 {
		t.Errorf("latest history entry has %d results, want 2", len(traj.History[1].Results))
	}
	// Corrupt files, and a bare results array that is not a trajectory, must
	// fail loudly, not silently restart the trajectory.
	for _, bad := range []string{"{not json", `[{"benchmark":"BenchmarkOld"}]`} {
		if err := os.WriteFile(out, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-parse", in, "-out", out, "-bench", bench}, &stdout); err == nil {
			t.Errorf("existing file %q accepted", bad)
		}
	}
}

// TestRunMissingBenchmarkIsNamedError pins the trajectory guard: output that
// lost a canonical series fails with a MissingBenchmarksError naming exactly
// the series with no samples, instead of publishing a silently short JSON.
func TestRunMissingBenchmarkIsNamedError(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.json")
	var stdout bytes.Buffer
	err := run([]string{"-parse", in, "-out", out}, &stdout)
	var missing *MissingBenchmarksError
	if !errors.As(err, &missing) {
		t.Fatalf("want MissingBenchmarksError, got %v", err)
	}
	wantMissing := []string{"BenchmarkShardedUpdateResolve", "BenchmarkStructuralUpdateResolve", "BenchmarkLargeGridSolve"}
	if len(missing.Missing) != len(wantMissing) {
		t.Errorf("missing list %v, want %v", missing.Missing, wantMissing)
	}
	for i := range wantMissing {
		if i < len(missing.Missing) && missing.Missing[i] != wantMissing[i] {
			t.Errorf("missing list %v, want %v", missing.Missing, wantMissing)
			break
		}
	}
	if !strings.Contains(err.Error(), "BenchmarkShardedUpdateResolve") {
		t.Errorf("error text does not name the lost series: %v", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Error("JSON file was written despite the missing series")
	}
	// A user-supplied regexp carries no per-name expectation: the same input
	// succeeds when the pattern is not an exact alternation list.
	if err := run([]string{"-parse", in, "-out", out, "-bench", "Benchmark.*Resolve"}, &stdout); err != nil {
		t.Errorf("free-form regexp rejected: %v", err)
	}
}

// TestRunFlagHandling: -h goes to stdout and exits clean; bad flags error.
func TestRunFlagHandling(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-h"}, &stdout); err != nil {
		t.Errorf("-h returned error: %v", err)
	}
	if err := run([]string{"-count", "0"}, &stdout); err == nil {
		t.Error("count 0 accepted")
	}
	if err := run([]string{"-parse", "/no/such/file"}, &stdout); err == nil {
		t.Error("missing parse file accepted")
	}
	if err := run([]string{"-no-such-flag"}, &stdout); err == nil {
		t.Error("unknown flag accepted")
	}
}
