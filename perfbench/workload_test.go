package main

import (
	"testing"

	"analogflow/internal/solve"
)

// Seed 7002's first R-MAT candidate prunes to a 4-vertex s-t core; the
// session must move on to the next candidate, and keep the first one
// where it is already full.
func TestPickSessionSkipsDegenerateCores(t *testing.T) {
	w, err := workloadByName("analog-session")
	if err != nil {
		t.Fatal(err)
	}
	for seed, want := range map[int64]int64{7001: 7002, 7002: 1_007_003} {
		in, err := newInputs(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		if in.session != want {
			t.Fatalf("seed %d: session instance %d, want %d", seed, in.session, want)
		}
		p, err := solve.NewProblem(in.base)
		if err != nil {
			t.Fatal(err)
		}
		if core, _ := p.STCore(); 2*core.NumVertices() < in.base.NumVertices() {
			t.Fatalf("seed %d: core keeps %d of %d vertices", seed, core.NumVertices(), in.base.NumVertices())
		}
	}
}
