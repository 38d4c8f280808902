// Command perfbench is the repository benchmark: a closed-loop load
// generator that drives a freshly launched analogflowd over loopback with one
// connection, checks every answer against references it computes itself,
// and, when tracing, replays the same workload in-process against
// solve.Service to time each layer.  perfbench/README.md describes the
// workloads and metrics; run it through perfbench/run.sh, which builds the
// daemon and this program from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// launches is how many fresh daemons an end-to-end run drives; setup_s is
// the median of their set-up times and the latency samples are pooled.
const launches = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: grid-cold, grid-hot, analog-session or grid-sharded")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 10, "length of the measured part of the run")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics over the wire; 1: per-layer metrics from a traced in-process replay")
		bin     = fs.String("daemon", "", "path to the analogflowd binary under test")
		outDir  = fs.String("out", ".bench_build/perfbench", "directory for span dumps")
		steady  = fs.Int("steady", 0, "steadiness report: run every workload this many times on consecutive seeds from -seed and print each metric's median, quartile spread and bound")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bin == "" {
		return fmt.Errorf("-daemon is required")
	}
	if *steady > 0 {
		return steadiness(*steady, *seed, *bin, *outDir)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	in, err := newInputs(w, *seed)
	if err != nil {
		return err
	}
	d := time.Duration(*seconds) * time.Second
	var out *output
	if *trace == 0 {
		out, err = endToEnd(in, *bin, d)
	} else {
		out, err = perLayer(in, *bin, d, filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed)))
	}
	if err != nil {
		return fmt.Errorf("%s seed %d: %w", w.name, *seed, err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
