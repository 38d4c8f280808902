package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/solve"
)

// refWorkers bounds the reference computation, which runs only after the
// timed windows, when nothing else is measured.
func refWorkers() int { return min(2, runtime.NumCPU()) }

// references computes the benchmark's own answer for every key the results
// name: a Dinic max flow of the generated graph (with the session's update
// steps applied up to that position) and, for behavioral sessions, a cold
// behavioral solve of the same problem.
func references(in *inputs, results []result) (map[int64]reference, error) {
	need := map[int64]bool{}
	for _, r := range results {
		need[r.key] = true
	}
	keys := make([]int64, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })

	type job struct {
		key int64
		g   *graph.Graph
	}
	jobs := make(chan job)
	refs := make(map[int64]reference, len(keys))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < refWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ref, err := referenceOf(in, j.g)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for key %d: %w", j.key, err)
				}
				refs[j.key] = ref
				mu.Unlock()
			}
		}()
	}
	produce := func() error {
		defer close(jobs)
		if in.w.kind != updateOp {
			for _, k := range keys {
				g, err := graph.SegmentationGrid(gridSide, gridSide, false, k)
				if err != nil {
					return err
				}
				jobs <- job{k, g}
			}
			return nil
		}
		// Walk the chain in order: position k is the base graph with steps
		// 0..k applied.
		g := in.base
		next := 0
		for k := int64(-1); next < len(keys); k++ {
			if k >= 0 {
				g = g.Clone()
				if _, err := g.ApplyCapacityUpdate(in.step(int(k))); err != nil {
					return err
				}
			}
			if keys[next] == k {
				jobs <- job{k, g}
				next++
			}
		}
		return nil
	}
	err := produce()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return refs, firstErr
}

func referenceOf(in *inputs, g *graph.Graph) (reference, error) {
	v, err := maxflow.OptimalValue(g)
	if err != nil {
		return reference{}, err
	}
	ref := reference{dinic: v}
	if in.w.solver == "behavioral" {
		p, err := solve.NewProblem(g.Clone())
		if err != nil {
			return reference{}, err
		}
		rep, err := solve.DefaultRegistry().Solve(context.Background(), "behavioral", p)
		if err != nil {
			return reference{}, err
		}
		ref.cold = rep.FlowValue
	}
	return ref, nil
}
