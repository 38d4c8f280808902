package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
	"analogflow/internal/solve"
)

// Instance sizes.  128² keeps a cache full of cold grids near 1.7 GB of
// daemon heap on the default 64-entry bound; 960 is the paper's largest
// R-MAT evaluation size.
const (
	gridSide       = 128
	rmatVertices   = 960
	hotInstances   = 4    // distinct hot grids, fewer than any sane cache bound
	stepEdges      = 8    // edges changed by one session update step
	shardedBudget  = 8192 // max_vertices for grid-sharded: half a 128² grid
	shardedRegions = 2
	// Between set-up and the timed window, at least warmupOps untimed
	// operations run for at least warmupTime, so the heap and the GC pacer
	// reach their steady state first.
	warmupOps  = 5
	warmupTime = time.Second
)

// kind says which wire operation a workload drives.
type kind int

const (
	solveOp  kind = iota // POST /v1/solve, one problem
	updateOp             // POST /v1/sessions/{id}/update, one step
)

// workload is one stationary traffic shape: one backend, one instance size,
// one operation kind.
type workload struct {
	name   string
	kind   kind
	solver string
	// hot: solve a fixed handful of instances that set-up already cached;
	// otherwise every solve carries a fresh instance.
	hot bool
	// rmat selects the R-MAT session instance; otherwise sessions run on a
	// segmentation grid.
	rmat bool
	// sharded sessions carry a request budget that splits the grid into
	// shardedRegions regions.
	sharded bool
	// Layers the workload passes through in the daemon, which decide the
	// pre-invoked stages and replays of the traced run.  prunes: the service
	// prunes each request's problem (a cache miss); kernel: the flat Dinic
	// kernel answers each request; exact: a separate Dinic reference solve
	// (Problem.ExactValue) runs inside each request, which a flat dinic solve
	// never needs because it seeds the exact value from its own answer;
	// prepare: the quantize stage runs per request.
	prunes, kernel, exact, prepare bool
}

var workloads = []workload{
	{name: "grid-cold", kind: solveOp, solver: "dinic", prunes: true, kernel: true},
	{name: "grid-hot", kind: solveOp, solver: "dinic", hot: true},
	{name: "analog-session", kind: updateOp, solver: "behavioral", rmat: true, exact: true, prepare: true},
	{name: "grid-sharded", kind: updateOp, solver: "dinic", sharded: true, exact: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs derives every input of a run from the seed: which grids the solve
// workloads send, which instance a session opens and which update steps it
// applies.  The same seed always gives the same inputs.
type inputs struct {
	w    workload
	seed int64
	// session is the generator seed of the session's base instance, and
	// base the instance itself (update workloads).
	session int64
	base    *graph.Graph
	// choosable lists the edges an update step may touch: those with a
	// positive base capacity, so no step changes the graph's support.
	choosable []int
}

func newInputs(w workload, seed int64) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	if w.kind != updateOp {
		return in, nil
	}
	g, err := in.pickSession()
	if err != nil {
		return nil, err
	}
	in.base = g
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(i).Capacity > 0 {
			in.choosable = append(in.choosable, i)
		}
	}
	if len(in.choosable) < stepEdges {
		return nil, fmt.Errorf("%s: base graph has only %d positive edges", w.name, len(in.choosable))
	}
	return in, nil
}

// gridSeed is the grid generator seed of the i-th solve of the run.  Set-up
// solves take i < 0 indices in the cold workload (the cache fill) and
// 0..hotInstances-1 in the hot one; seeds never repeat across i and are
// never 0 (the noiseless image).
func (in *inputs) gridSeed(i int) int64 {
	if in.w.hot {
		i = ((i % hotInstances) + hotInstances) % hotInstances
	}
	return (in.seed%1_000_000)*10_000_000 + 5_000_000 + int64(i)
}

// sessionTries bounds the candidate instances pickSession generates.
const sessionTries = 16

// pickSession chooses the session's base instance: the first of a fixed
// sequence of generator seeds, derived from the run seed, whose s-t core
// keeps at least half of the vertices.  Some R-MAT seeds cut the source
// off behind a handful of edges; their core has a few vertices, a step on
// them costs a quarter of a typical one, and one such seed would make its
// run describe a different workload.
func (in *inputs) pickSession() (*graph.Graph, error) {
	for k := int64(0); k < sessionTries; k++ {
		in.session = in.seed%1_000_000 + 1 + k*1_000_000
		g, err := in.baseGraph()
		if err != nil {
			return nil, err
		}
		p, err := solve.NewProblem(g)
		if err != nil {
			return nil, err
		}
		if core, _ := p.STCore(); 2*core.NumVertices() >= g.NumVertices() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%s: no base instance with a full s-t core in %d tries", in.w.name, sessionTries)
}

// baseGraph generates the session's base instance from in.session.
func (in *inputs) baseGraph() (*graph.Graph, error) {
	if in.w.rmat {
		return rmat.Generate(rmat.DenseParams(rmatVertices, in.session))
	}
	return graph.SegmentationGrid(gridSide, gridSide, false, in.session)
}

// step returns the k-th update step of the session chain: stepEdges distinct
// edges, each set to a capacity drawn around its base value, so the graph's
// capacity distribution stays stationary however long the chain runs.
// R-MAT capacities stay integers in the dense generator's capacity band.
func (in *inputs) step(k int) graph.CapacityUpdate {
	rng := rand.New(rand.NewPCG(uint64(in.seed), uint64(k)))
	u := graph.CapacityUpdate{}
	seen := map[int]bool{}
	for len(u.Edges) < stepEdges {
		e := in.choosable[rng.IntN(len(in.choosable))]
		if seen[e] {
			continue
		}
		seen[e] = true
		var c float64
		if in.w.rmat {
			p := rmat.DenseParams(rmatVertices, 0)
			c = float64(p.MinCapacity + rng.IntN(p.MaxCapacity-p.MinCapacity+1))
		} else {
			c = in.base.Edge(e).Capacity * (0.5 + rng.Float64())
		}
		u.Edges = append(u.Edges, e)
		u.Capacities = append(u.Capacities, c)
	}
	return u
}

// problemOptions are the solve.Problem options the daemon derives from the
// request this workload sends.
func (in *inputs) problemOptions() []solve.Option {
	if in.w.sharded {
		return []solve.Option{solve.WithBudget(solve.Budget{MaxVertices: shardedBudget, MaxRegions: shardedRegions})}
	}
	return nil
}

// --- wire request bodies ---------------------------------------------------

type gridJSON struct {
	Width  int   `json:"width"`
	Height int   `json:"height"`
	Seed   int64 `json:"seed"`
}

type rmatJSON struct {
	Vertices int   `json:"vertices"`
	Sparse   bool  `json:"sparse"`
	Seed     int64 `json:"seed"`
}

type problemJSON struct {
	Grid *gridJSON `json:"grid,omitempty"`
	RMAT *rmatJSON `json:"rmat,omitempty"`
}

type budgetJSON struct {
	MaxVertices int `json:"max_vertices"`
	MaxRegions  int `json:"max_regions"`
}

type solveBody struct {
	Solver   string        `json:"solver"`
	Problems []problemJSON `json:"problems"`
}

type sessionBody struct {
	Solver  string      `json:"solver"`
	Problem problemJSON `json:"problem"`
	Budget  *budgetJSON `json:"budget,omitempty"`
}

type edgeJSON struct {
	Edge     int     `json:"edge"`
	Capacity float64 `json:"capacity"`
}

type updateBody struct {
	Updates []edgeJSON `json:"updates"`
}

func (in *inputs) solveBody(i int) solveBody {
	return solveBody{Solver: in.w.solver, Problems: []problemJSON{{Grid: &gridJSON{gridSide, gridSide, in.gridSeed(i)}}}}
}

func (in *inputs) sessionBody() sessionBody {
	b := sessionBody{Solver: in.w.solver}
	if in.w.rmat {
		b.Problem.RMAT = &rmatJSON{Vertices: rmatVertices, Seed: in.session}
	} else {
		b.Problem.Grid = &gridJSON{gridSide, gridSide, in.session}
	}
	if in.w.sharded {
		b.Budget = &budgetJSON{MaxVertices: shardedBudget, MaxRegions: shardedRegions}
	}
	return b
}

func updateBodyOf(u graph.CapacityUpdate) updateBody {
	b := updateBody{Updates: make([]edgeJSON, len(u.Edges))}
	for i, e := range u.Edges {
		b.Updates[i] = edgeJSON{Edge: e, Capacity: u.Capacities[i]}
	}
	return b
}
