package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"analogflow/internal/graph"
	"analogflow/internal/solve"
)

// target is what a workload drives: the daemon over the wire, or
// solve.Service in-process.  Operation i is the solve of instance i or the
// update step i of the session chain.
type target interface {
	create() (answer, error)
	op(i int) (answer, time.Duration, error)
	counters() (solve.Stats, error)
}

// result is one operation's outcome, keyed by what its reference depends
// on: the grid seed of a solve, or the chain position of a session answer
// (-1 for the session's base problem).
type result struct {
	key     int64
	ans     answer
	latency time.Duration
	at      time.Duration // when the operation was sent, from the window's start
	err     error
}

// --- over the wire -----------------------------------------------------------

type wireTarget struct {
	in      *inputs
	d       *daemon
	session string
}

func (t *wireTarget) create() (answer, error) {
	status, body, _, err := t.d.post("/v1/sessions", t.in.sessionBody())
	if err != nil {
		return answer{}, err
	}
	id, a, err := parseCreate(status, body)
	t.session = id
	return a, err
}

func (t *wireTarget) op(i int) (answer, time.Duration, error) {
	var v any
	path := "/v1/solve"
	if t.in.w.kind == updateOp {
		v, path = updateBodyOf(t.in.step(i)), "/v1/sessions/"+t.session+"/update"
	} else {
		v = t.in.solveBody(i)
	}
	status, body, latency, err := t.d.post(path, v)
	if err != nil {
		return answer{}, latency, err
	}
	a, err := parseStream(status, body)
	return a, latency, err
}

func (t *wireTarget) counters() (solve.Stats, error) { return t.d.counters() }

// --- in-process ----------------------------------------------------------------

// inprocTarget replays the workload against solve.Service with the daemon's
// default configuration, mirroring what the daemon's handlers call for each
// request.  Odd operations are traced when tr is set, so the traced and
// untraced samples share the same conditions.
type inprocTarget struct {
	in   *inputs
	svc  *solve.Service
	tr   *tracer
	on   bool           // tracing enabled (the timed window only)
	head *solve.Problem // session chain head
	// sampled keeps the graphs of the first traced operations for the
	// out-of-request replays.
	sampled []*graph.Graph
}

const replaySamples = 12

func newInprocTarget(in *inputs, tr *tracer) *inprocTarget {
	return &inprocTarget{in: in, svc: solve.NewService(solve.Config{}), tr: tr}
}

func (t *inprocTarget) create() (answer, error) {
	g, err := t.in.baseGraph()
	if err != nil {
		return answer{}, err
	}
	p, err := solve.NewProblem(g, t.in.problemOptions()...)
	if err != nil {
		return answer{}, err
	}
	rep, err := t.svc.Solve(context.Background(), solve.Request{Solver: t.in.w.solver, Problem: p, Updatable: true})
	if err != nil {
		return answer{}, err
	}
	t.head = p
	return reportAnswer(rep, false), nil
}

func (t *inprocTarget) op(i int) (answer, time.Duration, error) {
	tr := t.tr
	if !t.on || i%2 == 0 {
		tr = nil
	}
	start := time.Now()
	var a answer
	var g *graph.Graph
	var err error
	if t.in.w.kind == updateOp {
		a, g, err = t.update(tr, int64(i), i)
	} else {
		a, g, err = t.solve(tr, int64(i), i)
	}
	latency := time.Since(start)
	tr.closeOpen(start)
	if tr != nil && err == nil && len(t.sampled) < replaySamples {
		t.sampled = append(t.sampled, g)
	}
	return a, latency, err
}

// solve mirrors POST /v1/solve for one grid: build the problem, solve it
// through the service and encode the stream record.  The fingerprint (and,
// where the service prunes, the s-t core) is computed before the service
// call so the service reads the memo and each stage shows as its own span.
func (t *inprocTarget) solve(tr *tracer, req int64, i int) (answer, *graph.Graph, error) {
	root := tr.begin("analogflowd.request", req, -1)
	h := tr.begin("graph.build", req, root)
	g, err := graph.SegmentationGrid(gridSide, gridSide, false, t.in.gridSeed(i))
	if err != nil {
		return answer{}, nil, err
	}
	p, err := solve.NewProblem(g)
	if err != nil {
		return answer{}, nil, err
	}
	tr.end(h)
	svc := tr.begin("solve.service", req, root)
	h = tr.begin("solve.fingerprint", req, svc)
	p.Fingerprint()
	tr.end(h)
	if t.in.w.prunes {
		h = tr.begin("solve.prune", req, svc)
		p.STCore()
		tr.end(h)
	}
	rep, err := t.svc.Solve(context.Background(), solve.Request{Solver: t.in.w.solver, Problem: p})
	tr.end(svc)
	if err != nil {
		return answer{}, nil, err
	}
	h = tr.begin("analogflowd.encode", req, root)
	_, err = json.Marshal(struct {
		Index  int           `json:"index"`
		Report *solve.Report `json:"report"`
	}{0, rep})
	tr.end(h)
	tr.end(root)
	return reportAnswer(rep, false), g, err
}

// update mirrors POST /v1/sessions/{id}/update for one step.
func (t *inprocTarget) update(tr *tracer, req int64, k int) (answer, *graph.Graph, error) {
	root := tr.begin("analogflowd.request", req, -1)
	svc := tr.begin("solve.service", req, root)
	res, err := t.svc.Update(context.Background(), solve.UpdateRequest{Solver: t.in.w.solver, Problem: t.head, Update: t.in.step(k)})
	tr.end(svc)
	if err != nil {
		return answer{}, nil, err
	}
	t.head = res.Problem
	h := tr.begin("analogflowd.encode", req, root)
	_, err = json.Marshal(map[string]any{"index": 0, "warm": res.Warm, "report": res.Report})
	tr.end(h)
	tr.end(root)
	return reportAnswer(res.Report, res.Warm), res.Problem.Graph(), err
}

func (t *inprocTarget) counters() (solve.Stats, error) { return t.svc.Stats(), nil }

func reportAnswer(rep *solve.Report, warm bool) answer {
	a := answer{flow: rep.FlowValue, exact: rep.ExactValue, warm: warm}
	if p := rep.Plan; p != nil {
		a.plan = planJSON{Regions: p.Regions, OuterIterations: p.OuterIterations,
			RegionSolves: p.RegionSolves, RegionSkips: p.RegionSkips}
	}
	return a
}

// --- driving a target --------------------------------------------------------

// setUp builds the workload's one-time state: the session, the first solve
// of every hot instance, or a cold cache filled to its bound.  It returns the
// answers to check and, for the cold workload, the bound the cache settled
// at (the count at which one more fresh instance no longer grows it).
func setUp(t target, in *inputs) ([]result, int, error) {
	var out []result
	switch {
	case in.w.kind == updateOp:
		a, err := t.create()
		if err != nil {
			return nil, 0, fmt.Errorf("session create: %w", err)
		}
		out = append(out, result{key: -1, ans: a})
	case in.w.hot:
		for i := 0; i < hotInstances; i++ {
			a, _, err := t.op(i)
			if err != nil {
				return nil, 0, fmt.Errorf("hot instance %d: %w", i, err)
			}
			out = append(out, result{key: in.gridSeed(i), ans: a})
		}
	default:
		prev := -1
		for i := -1; i >= -4096; i-- {
			a, _, err := t.op(i)
			if err != nil {
				return nil, 0, fmt.Errorf("cache fill %d: %w", -i, err)
			}
			out = append(out, result{key: in.gridSeed(i), ans: a})
			st, err := t.counters()
			if err != nil {
				return nil, 0, err
			}
			if st.CachedInstances == prev {
				return out, prev, nil
			}
			prev = st.CachedInstances
		}
		return nil, 0, fmt.Errorf("instance cache still growing after 4096 fresh solves")
	}
	return out, 0, nil
}

// keyOf is the reference key of operation i.
func keyOf(in *inputs, i int) int64 {
	if in.w.kind == updateOp {
		return int64(i)
	}
	return in.gridSeed(i)
}

// warmUp runs untimed operations from 0 on, at least warmupOps of them and
// for at least d, failing on any error.  It returns their answers and the
// index of the first operation it did not run.
func warmUp(t target, in *inputs, d time.Duration) ([]result, int, error) {
	var out []result
	start := time.Now()
	i := 0
	for ; i < warmupOps || time.Since(start) < d; i++ {
		a, _, err := t.op(i)
		if err != nil {
			return nil, 0, fmt.Errorf("warm-up operation %d: %w", i, err)
		}
		out = append(out, result{key: keyOf(in, i), ans: a})
	}
	return out, i, nil
}

// runWindow drives the closed loop from operation `from` until d has passed
// and returns every operation with the window's length.  The loop sends the
// next operation only after the previous answer was read.
func runWindow(t target, in *inputs, from int, d time.Duration) ([]result, time.Duration) {
	var out []result
	start := time.Now()
	for i := from; time.Since(start) < d; i++ {
		at := time.Since(start)
		a, latency, err := t.op(i)
		out = append(out, result{key: keyOf(in, i), ans: a, latency: latency, at: at, err: err})
	}
	return out, time.Since(start)
}
