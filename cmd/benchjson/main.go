// Command benchjson runs the repository's canonical benchmarks and emits a
// machine-readable JSON record of the results — median ns/op plus every
// custom metric the benchmarks report (rel-err-%, speedup, flow-value, ...) —
// so CI can publish the perf trajectory as an artifact instead of burying it
// in log text.
//
// Usage:
//
//	benchjson                         # run the five canonical benchmarks
//	benchjson -bench 'Fig10' -count 5 # any benchmark regexp, median of 5
//	benchjson -parse bench.txt        # reprocess saved `go test -bench` output
//
// The output file (-out, default BENCH.json) holds the latest run's results
// plus an appended history keyed by git SHA (or -label), aggregated across
// -count runs by median, so the artifact carries the full perf trajectory
// instead of only the last run.  Every custom b.ReportMetric unit rides
// along, so the warm-consensus series — speedup, rel-err-%, warm-iters/step
// vs cold-iters/step, regions-skipped/step, warm-fraction — are published
// without the command knowing their names:
//
//	{"label":"31b39e3",
//	 "results":[{"benchmark":"BenchmarkShardedUpdateResolve/dinic","runs":3,
//	   "ns_per_op":8644225,"metrics":{"speedup":17.3,"rel-err-%":0,
//	   "warm-iters/step":1,"cold-iters/step":13,"regions-skipped/step":2}}],
//	 "history":[{"label":"31b39e3","results":[...]}]}
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// canonicalBench selects the five benchmarks CI tracks as the perf
// trajectory: the flat dynamic-update chain, the partition-planner scaling
// smoke, the warm sharded-update chain, the structural churn chain, and the
// large-grid kernel gate (heuristic push-relabel vs the frozen FIFO baseline,
// iterative Dinic, budget-sharded grid, 10^6-vertex long path).
const canonicalBench = "^(BenchmarkUpdateResolve|BenchmarkDecomposeScaling|BenchmarkShardedUpdateResolve|BenchmarkStructuralUpdateResolve|BenchmarkLargeGridSolve)$"

// maxHistory bounds the trajectory history carried in the output file; the
// oldest entries are dropped past this point so the CI artifact cannot grow
// without bound.
const maxHistory = 100

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var usage bytes.Buffer
	fs.SetOutput(&usage)
	var (
		bench     = fs.String("bench", canonicalBench, "benchmark regexp passed to go test -bench")
		benchtime = fs.String("benchtime", "3x", "go test -benchtime value")
		count     = fs.Int("count", 3, "go test -count value; metrics are aggregated by median")
		pkg       = fs.String("pkg", ".", "package to benchmark")
		out       = fs.String("out", "BENCH.json", "output JSON file")
		parse     = fs.String("parse", "", "parse saved benchmark output from this file instead of running go test")
		label     = fs.String("label", "", "history key for this run (default: short git SHA, else \"local\")")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			_, _ = io.Copy(stdout, &usage)
			return nil
		}
		return err
	}
	if *count < 1 {
		return fmt.Errorf("count must be at least 1, got %d", *count)
	}

	var raw []byte
	if *parse != "" {
		b, err := os.ReadFile(*parse)
		if err != nil {
			return err
		}
		raw = b
	} else {
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", *bench, "-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			// A benchmark that b.Fatal()s is a real failure; surface the
			// captured output so the cause is visible.
			_, _ = stdout.Write(buf.Bytes())
			return fmt.Errorf("go test -bench failed: %w", err)
		}
		raw = buf.Bytes()
	}

	runs, err := parseBenchOutput(raw)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("no benchmark result lines found (regexp %q may match nothing)", *bench)
	}
	// A benchmark that silently printed no samples (renamed, skipped, or the
	// regexp drifted) must fail the trajectory step by name, not publish a
	// JSON file that quietly lost a series.
	if missing := missingBenchmarks(*bench, runs); len(missing) > 0 {
		return &MissingBenchmarksError{Missing: missing}
	}
	results := aggregate(runs)
	key := *label
	if key == "" {
		key = gitLabel()
	}
	traj, err := loadTrajectory(*out)
	if err != nil {
		return err
	}
	traj.Label = key
	traj.Results = results
	// Keyed by label: a rerun under the same SHA replaces its history entry
	// instead of duplicating it, so CI retries stay idempotent.
	kept := traj.History[:0]
	for _, e := range traj.History {
		if e.Label != key {
			kept = append(kept, e)
		}
	}
	traj.History = append(kept, HistoryEntry{Label: key, Results: results})
	if len(traj.History) > maxHistory {
		traj.History = traj.History[len(traj.History)-maxHistory:]
	}
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d benchmark entries to %s (label %s, %d history entr%s)\n",
		len(results), *out, key, len(traj.History), plural(len(traj.History), "y", "ies"))
	for _, r := range results {
		fmt.Fprintf(stdout, "  %-50s %14.0f ns/op  (%d run(s))\n", r.Benchmark, r.NsPerOp, r.Runs)
	}
	return nil
}

// Trajectory is the on-disk BENCH.json shape: the latest results at the top
// level plus the accumulated per-run history keyed by label, so the CI
// artifact carries the full perf trajectory instead of only the last run.
type Trajectory struct {
	// Label identifies the run that produced Results (short git SHA, or the
	// -label override).
	Label string `json:"label"`
	// Results is the latest run's aggregated benchmark set.
	Results []Result `json:"results"`
	// History holds one entry per distinct label, oldest first, bounded at
	// maxHistory.
	History []HistoryEntry `json:"history"`
}

// HistoryEntry is one labelled run in the trajectory history.
type HistoryEntry struct {
	Label   string   `json:"label"`
	Results []Result `json:"results"`
}

// loadTrajectory reads an existing output file so history accumulates across
// runs.  A missing file starts an empty trajectory.
func loadTrajectory(path string) (Trajectory, error) {
	var traj Trajectory
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return traj, nil
		}
		return traj, err
	}
	if err := json.Unmarshal(data, &traj); err != nil {
		return traj, fmt.Errorf("existing %s: %w", path, err)
	}
	return traj, nil
}

// gitLabel returns the short HEAD SHA, or "local" outside a git checkout —
// the history key when -label is not given.
func gitLabel() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "local"
	}
	if sha := strings.TrimSpace(string(out)); sha != "" {
		return sha
	}
	return "local"
}

// plural picks the singular or plural suffix for a count.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// MissingBenchmarksError names the benchmarks that were requested but
// produced no result samples — the named failure CI needs to distinguish "a
// tracked series vanished" from a parse or execution error.
type MissingBenchmarksError struct {
	// Missing lists the benchmark names with no samples, in request order.
	Missing []string
}

func (e *MissingBenchmarksError) Error() string {
	return fmt.Sprintf("no samples for benchmark(s): %s", strings.Join(e.Missing, ", "))
}

// missingBenchmarks checks an exact-alternation regexp of the canonical form
// ^(A|B|C)$ against the parsed runs and returns the names with no samples.
// Regexps of any other shape (user-supplied patterns) are not checked — only
// an explicit name list pins an expectation per benchmark.
func missingBenchmarks(bench string, runs []benchRun) []string {
	if !strings.HasPrefix(bench, "^(") || !strings.HasSuffix(bench, ")$") {
		return nil
	}
	names := strings.Split(bench[2:len(bench)-2], "|")
	seen := map[string]bool{}
	for _, r := range runs {
		top, _, _ := strings.Cut(r.name, "/")
		seen[top] = true
	}
	var missing []string
	for _, n := range names {
		if n == "" || strings.ContainsAny(n, "^$()[].*+?\\") {
			return nil // not a plain name list; don't guess
		}
		if !seen[n] {
			missing = append(missing, n)
		}
	}
	return missing
}

// benchRun is one parsed benchmark result line.
type benchRun struct {
	name    string
	iters   int
	nsPerOp float64
	metrics map[string]float64
}

// Result is one aggregated benchmark entry of the JSON trajectory.
type Result struct {
	// Benchmark is the full benchmark path with the GOMAXPROCS suffix
	// stripped, e.g. "BenchmarkShardedUpdateResolve/dinic".
	Benchmark string `json:"benchmark"`
	// Runs is how many result lines were aggregated (the -count value, when
	// every run printed).
	Runs int `json:"runs"`
	// Iterations is the per-run b.N of the median run.
	Iterations int `json:"iterations"`
	// NsPerOp is the median ns/op across runs.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds the medians of every custom b.ReportMetric unit the
	// benchmark emitted (rel-err-%, speedup, flow-value, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// parseBenchOutput extracts the result lines from `go test -bench` output.
// A result line looks like
//
//	BenchmarkName/sub-8   3   18004153 ns/op   9326591 cold-ns/step   1.079 speedup
//
// i.e. name, iteration count, then value/unit pairs.
func parseBenchOutput(out []byte) ([]benchRun, error) {
	var runs []benchRun
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue // e.g. the "Benchmark...: some message" log line
		}
		r := benchRun{name: stripProcs(fields[0]), iters: iters, metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			if fields[i+1] == "ns/op" {
				r.nsPerOp = v
			} else {
				r.metrics[fields[i+1]] = v
			}
		}
		if ok {
			runs = append(runs, r)
		}
	}
	return runs, sc.Err()
}

// stripProcs removes the trailing -<GOMAXPROCS> suffix of a benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// aggregate groups the runs by benchmark name and takes the median of every
// numeric column, preserving first-seen benchmark order.
func aggregate(runs []benchRun) []Result {
	order := []string{}
	byName := map[string][]benchRun{}
	for _, r := range runs {
		if _, seen := byName[r.name]; !seen {
			order = append(order, r.name)
		}
		byName[r.name] = append(byName[r.name], r)
	}
	results := make([]Result, 0, len(order))
	for _, name := range order {
		group := byName[name]
		res := Result{Benchmark: name, Runs: len(group), Metrics: map[string]float64{}}
		var ns []float64
		var iters []int
		units := map[string][]float64{}
		for _, r := range group {
			ns = append(ns, r.nsPerOp)
			iters = append(iters, r.iters)
			for u, v := range r.metrics {
				units[u] = append(units[u], v)
			}
		}
		res.NsPerOp = median(ns)
		sort.Ints(iters)
		res.Iterations = iters[len(iters)/2]
		for u, vs := range units {
			res.Metrics[u] = median(vs)
		}
		if len(res.Metrics) == 0 {
			res.Metrics = nil
		}
		results = append(results, res)
	}
	return results
}

// median returns the median of a non-empty slice (upper median for even
// lengths, matching the repository's medianDuration convention).
func median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}
