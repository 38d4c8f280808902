package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Req: 1, Parent: -1, Start: 0, End: 100},
		{Name: "a", Req: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", Req: 1, Parent: 0, Start: 30, End: 50}, // overlaps a: the union is 10..50
		{Name: "c", Req: 1, Parent: 0, Start: 70, End: 80},
		{Name: "leaf", Req: 1, Parent: 1, Start: 15, End: 20},
	}}
	self := tr.selfTimes()
	for i, want := range []time.Duration{50, 25, 20, 10, 5} {
		if self[i] != want {
			t.Errorf("self time of %s = %v, want %v", tr.spans[i].Name, self[i], want)
		}
	}
}

func TestPerRequestSumsRepeatedSpans(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{Name: "x", Req: 1, Parent: -1, Start: 0, End: 2 * ms},
		{Name: "x", Req: 1, Parent: -1, Start: 3 * ms, End: 4 * ms},
		{Name: "x", Req: 2, Parent: -1, Start: 0, End: 5 * ms},
		{Name: "y", Req: 2, Parent: -1, Start: 0, End: 9 * ms},
	}}
	got := tr.perRequest("x", false)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("per-request x = %v, want [3 5]", got)
	}
	if m := tr.medianMS("absent", false); m != 0 {
		t.Errorf("median of an absent layer = %v, want 0", m)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	h := tr.begin("x", 1, -1)
	tr.end(h)
	tr.closeOpen(time.Now())
	if h != -1 {
		t.Errorf("nil tracer handle %d, want -1", h)
	}
}
