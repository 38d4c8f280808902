package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness report reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs two sets of k runs of every workload and prints, per
// end-to-end metric, each set's median and interquartile spread as a share
// of its median, the two-sided difference of the two medians as a share of
// the first, and the bound.  Set 1 runs every workload on seeds seed ..
// seed+k-1; set 2 then runs them all again on the next k seeds, so the two
// sets of one workload lie as far apart in time as the report allows.  Every
// metric, setup_s included, is held to the same rules: a spread at or above
// a third of its bound is marked, and a spread or a median difference above
// the bound fails the report, as does any run that is not correct; the
// report exits non-zero unless every spread is below a third of its bound.
func steadiness(k int, seed int64, bin, outDir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	const sets = 2
	// values[set][workload][metric] holds one value per run.
	values := make([]map[string]map[string][]float64, sets)
	correct := true
	for set := range sets {
		values[set] = map[string]map[string][]float64{}
		for _, w := range spec.Workloads {
			values[set][w.Name] = map[string][]float64{}
			for i := range k {
				s := seed + int64(set*k+i)
				out, err := runOnce(self, bin, outDir, w.Name, s, spec.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
				}
				if !out.Correct || out.Failed != 0 {
					correct = false
					fmt.Printf("%s seed %d: NOT CORRECT (%d of %d failed)\n", w.Name, s, out.Failed, out.Attempted)
				}
				for name, m := range out.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
			}
		}
	}

	marked, failed := false, !correct
	for _, w := range spec.Workloads {
		fmt.Printf("%s: set 1 seeds %d..%d, set 2 seeds %d..%d\n", w.Name, seed, seed+int64(k)-1, seed+int64(k), seed+int64(2*k)-1)
		fmt.Printf("  %-16s %-6s %12s %8s %12s %8s %8s %7s\n", "metric", "unit", "median 1", "spread 1", "median 2", "spread 2", "|diff|", "bound")
		for _, e := range spec.EndToEnd {
			var med [sets]float64
			var sp [sets]float64
			for set := range sets {
				v := values[set][w.Name][e.Name]
				if len(v) != k {
					return fmt.Errorf("%s: metric %s reported by %d of %d runs in set %d", w.Name, e.Name, len(v), k, set+1)
				}
				_, med[set], _ = quartiles(v)
				sp[set] = spread(v)
			}
			diff := medianDiff(med[0], med[1])
			mark := ""
			switch {
			case sp[0] > e.Bound || sp[1] > e.Bound || diff > e.Bound:
				mark, failed = "  <-- OUT OF BOUND", true
			case sp[0] >= e.Bound/3 || sp[1] >= e.Bound/3:
				mark, marked = "  <-- spread >= bound/3", true
			}
			fmt.Printf("  %-16s %-6s %12.4f %7.2f%% %12.4f %7.2f%% %7.2f%% %6.1f%%%s\n",
				e.Name, e.Unit, med[0], 100*sp[0], med[1], 100*sp[1], 100*diff, 100*e.Bound, mark)
			for set := range sets {
				fmt.Printf("  %16s set %d:", "", set+1)
				for _, x := range values[set][w.Name][e.Name] {
					fmt.Printf(" %.4g", x)
				}
				fmt.Println()
			}
		}
	}
	switch {
	case failed:
		return fmt.Errorf("not within bounds")
	case marked:
		return fmt.Errorf("not steady: within bounds, but some spread is at or above a third of its bound")
	default:
		fmt.Println("steady: every spread is below a third of its bound and every median difference within its bound")
	}
	return nil
}

// runOnce runs one end-to-end run in a child process, as the benchmark's
// command would, and parses its result line.
func runOnce(self, bin, outDir, workload string, seed int64, seconds int) (*output, error) {
	cmd := exec.Command(self, "-daemon", bin, "-out", outDir, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out output
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &out, nil
}

// medianDiff is |b - a| / a, the two-sided difference of two set medians as
// a share of the first: a shift in either direction counts, so the verdict
// does not depend on which set ran first.
func medianDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}
