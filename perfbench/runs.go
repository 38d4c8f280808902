package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"time"

	"analogflow/internal/maxflow"
	"analogflow/internal/solve"
)

// wireRun is what a run read from its daemons: the pooled timed windows and
// everything read around them.
type wireRun struct {
	checked []result // set-up and warm-up answers: each must be correct
	window  []result // every launch's window, pooled
	elapsed time.Duration
	cpu     procTimes // daemon CPU time and page faults over the windows
	peakRSS []float64 // MiB, per launch
	setups  []float64 // seconds from launch to ready state, per launch
	p50s    []float64 // ms, median latency of each launch's window
}

// driveDaemon launches a fresh daemon `launches` times.  Each one builds the
// workload's one-time state, warms up and runs a timed window of d/launches;
// the windows are pooled, so one process's heap and GC phase cannot set a
// run's numbers.  Every daemon is stopped before it returns.
func driveDaemon(in *inputs, bin string, launches int, d time.Duration) (*wireRun, error) {
	run := &wireRun{}
	for rep := 0; rep < launches; rep++ {
		t0 := time.Now()
		dm, err := startDaemon(bin)
		if err != nil {
			return nil, err
		}
		t := &wireTarget{in: in, d: dm}
		res, bound, err := setUp(t, in)
		run.setups = append(run.setups, time.Since(t0).Seconds())
		run.checked = append(run.checked, res...)
		if err == nil {
			err = run.measure(t, in, bound, d/time.Duration(launches))
		}
		if stopErr := dm.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("stop daemon: %w", stopErr)
		}
		if err != nil {
			return nil, err
		}
	}
	return run, nil
}

// measure runs the warm-up and one timed window on a daemon whose one-time
// state is built, and checks the window was stationary.
func (r *wireRun) measure(t *wireTarget, in *inputs, bound int, d time.Duration) error {
	warm, next, err := warmUp(t, in, warmupTime)
	if err != nil {
		return err
	}
	r.checked = append(r.checked, warm...)
	before, err := t.counters()
	if err != nil {
		return err
	}
	cpu0, err := t.d.procTimes()
	if err != nil {
		return err
	}
	win, elapsed := runWindow(t, in, next, d)
	cpu1, err := t.d.procTimes()
	if err != nil {
		return err
	}
	after, err := t.counters()
	if err != nil {
		return err
	}
	if err := stationary(in, before, after, bound, win); err != nil {
		return err
	}
	rss, err := t.d.peakRSS()
	if err != nil {
		return err
	}
	// The launches' windows are laid end to end on one time line.
	for i := range win {
		win[i].at += r.elapsed
	}
	r.window = append(r.window, win...)
	lat := make([]float64, len(win))
	for i, x := range win {
		lat[i] = ms(x.latency)
	}
	r.p50s = append(r.p50s, median(lat))
	r.elapsed += elapsed
	r.cpu.user += cpu1.user - cpu0.user
	r.cpu.sys += cpu1.sys - cpu0.sys
	r.cpu.faults += cpu1.faults - cpu0.faults
	r.peakRSS = append(r.peakRSS, rss)
	return nil
}

// stationary checks, from the counter deltas over a window and its answers,
// that the window measured the state the workload promises.  A violation
// fails the run: its numbers would describe some other workload.
func stationary(in *inputs, before, after solve.Stats, bound int, window []result) error {
	w := in.w
	switch {
	case w.kind == solveOp && !w.hot:
		if hits := after.CacheHits - before.CacheHits; hits != 0 {
			return fmt.Errorf("stationarity: %d cache hits in the cold window", hits)
		}
		if before.CachedInstances != bound || after.CachedInstances != bound {
			return fmt.Errorf("stationarity: cache held %d then %d instances, bound %d", before.CachedInstances, after.CachedInstances, bound)
		}
	case w.hot:
		if misses := after.CacheMisses - before.CacheMisses; misses != 0 {
			return fmt.Errorf("stationarity: %d cache misses in the hot window", misses)
		}
	case !w.sharded:
		if upd, warm := after.Updates-before.Updates, after.UpdateWarmHits-before.UpdateWarmHits; upd != warm {
			return fmt.Errorf("stationarity: %d of %d session steps ran cold", upd-warm, upd)
		}
	default:
		if upd, warm := after.ShardedUpdates-before.ShardedUpdates, after.ShardedUpdateWarmHits-before.ShardedUpdateWarmHits; upd != warm {
			return fmt.Errorf("stationarity: %d of %d sharded steps missed the warm oracle", upd-warm, upd)
		}
	}
	for i, r := range window {
		if r.err != nil || w.kind != updateOp {
			continue
		}
		if !r.ans.warm {
			return fmt.Errorf("stationarity: window step %d ran cold", i)
		}
		if w.sharded && r.ans.plan.Regions != shardedRegions {
			return fmt.Errorf("stationarity: window step %d planned %d regions, want %d", i, r.ans.plan.Regions, shardedRegions)
		}
	}
	return nil
}

// judge checks every answer against the references.  Set-up and warm-up
// answers must all be right; window answers that are wrong, or that failed
// outright, count as failed operations.
func judge(in *inputs, checked, win []result, refs map[int64]reference, elapsed time.Duration) (*window, error) {
	for _, r := range checked {
		if err := check(in.w.solver, r.ans, refs[r.key]); err != nil {
			return nil, fmt.Errorf("set-up answer for key %d: %w", r.key, err)
		}
	}
	wd := &window{elapsed: elapsed}
	for _, r := range win {
		ok := r.err == nil && check(in.w.solver, r.ans, refs[r.key]) == nil
		wd.add(r.latency, r.at, ok)
	}
	return wd, nil
}

func endToEnd(in *inputs, bin string, d time.Duration) (*output, error) {
	run, err := driveDaemon(in, bin, launches, d)
	if err != nil {
		return nil, err
	}
	refs, err := references(in, slices.Concat(run.checked, run.window))
	if err != nil {
		return nil, err
	}
	wd, err := judge(in, run.checked, run.window, refs, run.elapsed)
	if err != nil {
		return nil, err
	}
	lat := wd.sortedLatencies()
	p90, err := tailPercentile(lat, 90)
	if err != nil {
		return nil, err
	}
	summary(in, 0, wd, map[string]any{"setups_s": run.setups, "peak_rss_mb": run.peakRSS, "launch_p50_ms": run.p50s,
		"pooled_p50_ms": nearestRank(lat, 50),
		"sys_cpu_share": safeDiv(ms(run.cpu.sys), ms(run.cpu.user+run.cpu.sys)), "page_faults_per_op": float64(run.cpu.faults) / float64(wd.attempted())})
	return &output{
		Correct:   wd.failures() == 0,
		Attempted: wd.attempted(),
		Failed:    wd.failures(),
		Metrics: map[string]metric{
			"latency_p50_ms": {wd.slicedMedian(time.Second), "ms"},
			"latency_p90_ms": {p90, "ms"},
			"throughput_rps": {wd.throughput(), "1/s"},
			"ok_ratio":       {wd.okRatio(), "ratio"},
			"cpu_ms_per_op":  {ms(run.cpu.user+run.cpu.sys) / float64(wd.attempted()), "ms"},
			"peak_rss_mb":    {median(run.peakRSS), "MiB"},
			"setup_s":        {median(run.setups), "s"},
		},
	}, nil
}

// summary prints one line recording what the run measured, ahead of the
// result line.
func summary(in *inputs, trace int, wd *window, extra map[string]any) {
	s := map[string]any{"workload": in.w.name, "seed": in.seed, "trace": trace,
		"samples": wd.attempted(), "window_s": wd.elapsed.Seconds()}
	for k, v := range extra {
		s[k] = v
	}
	b, _ := json.Marshal(s) // plain values only; cannot fail
	fmt.Println(string(b))
}

// runtimeSample reads the process's cumulative GC CPU, total CPU capacity
// and live heap.
type runtimeSample struct{ gcCPU, totalCPU, liveHeap float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// perLayer measures the per-layer metrics: a short wire window (for the
// wire share), then an in-process replay of the same workload whose odd
// operations are traced, then out-of-request replays of the kernel, exact
// reference and quantize stages on sampled instances.
func perLayer(in *inputs, bin string, d time.Duration, tracePath string) (*output, error) {
	wireD := d / 3
	run, err := driveDaemon(in, bin, 1, wireD)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	t := newInprocTarget(in, tr)
	defer t.svc.Close()
	setupRes, bound, err := setUp(t, in)
	if err != nil {
		return nil, fmt.Errorf("in-process: %w", err)
	}
	warm, next, err := warmUp(t, in, warmupTime)
	if err != nil {
		return nil, fmt.Errorf("in-process: %w", err)
	}
	before := t.svc.Stats()
	rt0 := readRuntime()
	t.on = true
	win, elapsed := runWindow(t, in, next, d-wireD)
	t.on = false
	rt1 := readRuntime()
	after := t.svc.Stats()
	if err := stationary(in, before, after, bound, win); err != nil {
		return nil, fmt.Errorf("in-process: %w", err)
	}
	if err := replay(t); err != nil {
		return nil, err
	}

	refs, err := references(in, slices.Concat(run.checked, run.window, setupRes, warm, win))
	if err != nil {
		return nil, err
	}
	wireWd, err := judge(in, run.checked, run.window, refs, run.elapsed)
	if err != nil {
		return nil, err
	}
	ipWd, err := judge(in, slices.Concat(setupRes, warm), win, refs, elapsed)
	if err != nil {
		return nil, err
	}

	var untraced, traced, kb []float64
	var relErr, outer, solves, skips float64
	for j, r := range win {
		if (next+j)%2 == 0 {
			untraced = append(untraced, ms(r.latency))
		} else {
			traced = append(traced, ms(r.latency))
		}
		if ref := refs[r.key]; r.err == nil && ref.dinic != 0 {
			relErr += math.Abs(r.ans.flow-ref.dinic) / ref.dinic
		}
		outer += float64(r.ans.plan.OuterIterations)
		solves += float64(r.ans.plan.RegionSolves)
		skips += float64(r.ans.plan.RegionSkips)
	}
	for _, r := range run.window {
		kb = append(kb, float64(r.ans.bytes)/1024)
	}
	n := float64(len(win))
	service := tr.medianMS("solve.service", false)
	kernel := tr.medianMS("maxflow.kernel", false)
	m := map[string]metric{
		"analogflowd.response_kb":           {median(kb), "KiB"},
		"analogflowd.encode_ms":             {tr.medianMS("analogflowd.encode", false), "ms"},
		"analogflowd.wire_ms":               {median(wireWd.latencies) - median(untraced), "ms"},
		"graph.build_ms":                    {tr.medianMS("graph.build", false), "ms"},
		"solve.fingerprint_ms":              {tr.medianMS("solve.fingerprint", false), "ms"},
		"solve.prune_ms":                    {tr.medianMS("solve.prune", false), "ms"},
		"solve.service_ms":                  {service, "ms"},
		"solve.service_self_ms":             {tr.medianMS("solve.service", true), "ms"},
		"solve.cache_hit_ratio":             {ratio(after.CacheHits-before.CacheHits, after.CacheHits-before.CacheHits+after.CacheMisses-before.CacheMisses), "ratio"},
		"solve.cached_instances":            {float64(after.CachedInstances), "count"},
		"solve.update_warm_ratio":           {ratio(after.UpdateWarmHits-before.UpdateWarmHits, after.Updates-before.Updates), "ratio"},
		"solve.exact_ms":                    {tr.medianMS("solve.exact", false), "ms"},
		"maxflow.kernel_ms":                 {kernel, "ms"},
		"maxflow.kernel_share":              {safeDiv(kernel, service), "ratio"},
		"decompose.outer_iterations_per_op": {outer / n, "count"},
		"decompose.region_solves_per_op":    {solves / n, "count"},
		"decompose.region_skips_per_op":     {skips / n, "count"},
		"decompose.escalation_ratio":        {ratio(after.ConsensusEscalations-before.ConsensusEscalations, after.ShardedUpdates-before.ShardedUpdates), "ratio"},
		"decompose.oracle_warm_ratio":       {ratio(after.ShardedUpdateWarmHits-before.ShardedUpdateWarmHits, after.ShardedUpdates-before.ShardedUpdates), "ratio"},
		"core.prepare_ms":                   {tr.medianMS("core.prepare", false), "ms"},
		"core.rel_err":                      {relErr / n, "ratio"},
		"runtime.gc_cpu_fraction":           {safeDiv(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio"},
		"runtime.heap_live_mb":              {rt1.liveHeap / (1 << 20), "MiB"},
		"trace.overhead_ms":                 {median(traced) - median(untraced), "ms"},
	}
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	summary(in, 1, ipWd, map[string]any{"wire_samples": wireWd.attempted(), "spans": len(tr.spans), "trace_file": tracePath})
	failed := wireWd.failures() + ipWd.failures()
	return &output{
		Correct:   failed == 0,
		Attempted: wireWd.attempted() + ipWd.attempted(),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// replay times, outside any request, the stages a workload's requests run
// but the benchmark cannot pre-invoke: the flat Dinic kernel on the s-t core,
// the exact reference solve and the quantize stage, each on a fresh problem
// of a sampled instance so no memo answers for it.
func replay(t *inprocTarget) error {
	ctx := context.Background()
	tr, w := t.tr, t.in.w
	id := int64(1) << 40
	fresh := func(i int) (*solve.Problem, error) {
		p, err := solve.NewProblem(t.sampled[i])
		if err == nil {
			p.STCore()
		}
		return p, err
	}
	for i := range t.sampled {
		if w.kernel {
			p, err := fresh(i)
			if err != nil {
				return err
			}
			coreG, _ := p.STCore()
			h := tr.begin("maxflow.kernel", id, -1)
			net, err := maxflow.NewNetwork(coreG)
			if err == nil {
				_, err = net.Solve(ctx, maxflow.Dinic)
			}
			tr.end(h)
			if err != nil {
				return fmt.Errorf("kernel replay: %w", err)
			}
			id++
		}
		if w.exact {
			p, err := fresh(i)
			if err != nil {
				return err
			}
			h := tr.begin("solve.exact", id, -1)
			_, err = p.ExactValue(ctx)
			tr.end(h)
			if err != nil {
				return fmt.Errorf("exact replay: %w", err)
			}
			id++
		}
		if w.prepare {
			p, err := fresh(i)
			if err != nil {
				return err
			}
			h := tr.begin("core.prepare", id, -1)
			_, err = p.Prepared()
			tr.end(h)
			if err != nil {
				return fmt.Errorf("prepare replay: %w", err)
			}
			id++
		}
	}
	return nil
}

func ratio(num, den int64) float64 { return safeDiv(float64(num), float64(den)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
