package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"analogflow/internal/solve"
)

const okStream = `{"index":0,"report":{"solver":"dinic","flow_value":309.8015405133989,"exact_value":309.8015405133989,"relative_error":0,"edge_flows":[1,0,2.5],"plan":{"sharded":true,"vertices":16386,"regions":2,"outer_iterations":1},"wall_time_ns":12},"warm":true}
{"done":true,"count":1,"session_updates":3}
`

func TestParseStream(t *testing.T) {
	a, err := parseStream(http.StatusOK, []byte(okStream))
	if err != nil {
		t.Fatal(err)
	}
	if a.flow != 309.8015405133989 || a.exact != a.flow || !a.warm || a.plan.Regions != 2 || a.plan.OuterIterations != 1 {
		t.Errorf("parsed %+v", a)
	}
	if a.bytes != len(okStream) {
		t.Errorf("bytes %d, want %d", a.bytes, len(okStream))
	}
}

func TestWithoutEdgeFlows(t *testing.T) {
	for in, want := range map[string]string{
		`{"a":1,"edge_flows":[1,2],"b":2}`: `{"a":1,"b":2}`,
		`{"edge_flows":[],"b":2}`:          `{"b":2}`,
		`{"a":1}`:                          `{"a":1}`,
	} {
		if got := string(withoutEdgeFlows([]byte(in))); got != want {
			t.Errorf("withoutEdgeFlows(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestParseStreamRejectsBrokenStreams(t *testing.T) {
	for name, tc := range map[string]struct {
		status int
		body   string
	}{
		"status":       {http.StatusTooManyRequests, `{"error":{"code":"overloaded"}}`},
		"item error":   {http.StatusOK, `{"index":0,"error":"boom","code":"solver_error"}` + "\n" + `{"done":true,"count":1}`},
		"no done":      {http.StatusOK, strings.SplitAfter(okStream, "\n")[0]},
		"aborted":      {http.StatusOK, strings.SplitAfter(okStream, "\n")[0] + `{"aborted":true,"count":0,"code":"aborted"}`},
		"no report":    {http.StatusOK, `{"index":0}` + "\n" + `{"done":true,"count":1}`},
		"no flow":      {http.StatusOK, `{"index":0,"report":{"exact_value":3}}` + "\n" + `{"done":true,"count":1}`},
		"garbage line": {http.StatusOK, `{"index":0,` + "\n" + `{"done":true,"count":1}`},
	} {
		if _, err := parseStream(tc.status, []byte(tc.body)); err == nil {
			t.Errorf("%s: accepted %q", name, tc.body)
		}
	}
}

// A 200 stream whose value is wrong — here the flow_value 0 an unconverged
// consensus reports as a success — is a failed operation: it lowers ok_ratio
// and throughput and counts as a latency miss.
func TestWrongValueWith200IsAFailure(t *testing.T) {
	body := `{"index":0,"report":{"solver":"dinic","flow_value":0,"exact_value":309.8015405133989,"plan":{"sharded":true,"regions":3}},"warm":true}
{"done":true,"count":1}
`
	a, err := parseStream(http.StatusOK, []byte(body))
	if err != nil {
		t.Fatalf("the stream itself is well formed: %v", err)
	}
	ref := reference{dinic: 309.8015405133989}
	if err := check("dinic", a, ref); err == nil {
		t.Fatal("flow_value 0 against a max flow of 309.8 passed the check")
	}

	in := &inputs{w: workload{name: "grid-sharded", kind: updateOp, solver: "dinic", sharded: true}}
	good, _ := parseStream(http.StatusOK, []byte(okStream))
	results := []result{
		{key: 0, ans: good, latency: 30 * time.Millisecond},
		{key: 1, ans: a, latency: 20 * time.Millisecond},
	}
	refs := map[int64]reference{0: ref, 1: ref}
	wd, err := judge(in, nil, results, refs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if wd.attempted() != 2 || wd.failures() != 1 || wd.okRatio() != 0.5 || wd.throughput() != 1 {
		t.Errorf("attempted %d failed %d ok %v rps %v; want 2, 1, 0.5, 1",
			wd.attempted(), wd.failures(), wd.okRatio(), wd.throughput())
	}
	if lat := wd.sortedLatencies(); lat[1] != 1000 {
		t.Errorf("the wrong answer's latency sorts as %v ms, want the 1000 ms window", lat[1])
	}
	// A wrong answer during set-up is not a sample: it fails the run.
	if _, err := judge(in, results[1:], nil, refs, time.Second); err == nil {
		t.Error("a wrong set-up answer did not fail the run")
	}
}

func TestCheck(t *testing.T) {
	ref := reference{dinic: 55, cold: 55.395730786822035}
	for name, tc := range map[string]struct {
		solver string
		a      answer
		ok     bool
	}{
		"dinic exact":             {"dinic", answer{flow: 55, exact: 55}, true},
		"dinic rounding":          {"dinic", answer{flow: 55 + 1e-12, exact: 55}, true},
		"dinic short":             {"dinic", answer{flow: 54.9, exact: 55}, false},
		"wrong exact":             {"dinic", answer{flow: 55, exact: 56}, false},
		"behavioral equals cold":  {"behavioral", answer{flow: 55.395730786822035, exact: 55}, true},
		"behavioral off by a bit": {"behavioral", answer{flow: 55.39573078682204, exact: 55}, false},
		"behavioral exact answer": {"behavioral", answer{flow: 55, exact: 55}, false},
	} {
		if err := check(tc.solver, tc.a, ref); (err == nil) != tc.ok {
			t.Errorf("%s: check = %v, want ok=%v", name, err, tc.ok)
		}
	}
}

func TestStationarityGuards(t *testing.T) {
	cold := &inputs{w: workloads[0]}
	hot := &inputs{w: workloads[1]}
	analog := &inputs{w: workloads[2]}
	sharded := &inputs{w: workloads[3]}
	warm2 := []result{{ans: answer{warm: true, plan: planJSON{Regions: 2}}}}
	full := solve.Stats{CachedInstances: 64}
	for name, tc := range map[string]struct {
		in    *inputs
		after solve.Stats
		win   []result
		ok    bool
	}{
		"cold ok":           {cold, solve.Stats{CachedInstances: 64, CacheMisses: 5}, nil, true},
		"cold hit":          {cold, solve.Stats{CachedInstances: 64, CacheHits: 1}, nil, false},
		"cold under bound":  {cold, solve.Stats{CachedInstances: 63, CacheMisses: 5}, nil, false},
		"hot ok":            {hot, solve.Stats{CacheHits: 9}, nil, true},
		"hot miss":          {hot, solve.Stats{CacheHits: 9, CacheMisses: 1}, nil, false},
		"analog ok":         {analog, solve.Stats{Updates: 4, UpdateWarmHits: 4}, warm2, true},
		"analog cold step":  {analog, solve.Stats{Updates: 4, UpdateWarmHits: 3}, nil, false},
		"analog cold reply": {analog, solve.Stats{}, []result{{ans: answer{}}}, false},
		"sharded ok":        {sharded, solve.Stats{ShardedUpdates: 3, ShardedUpdateWarmHits: 3}, warm2, true},
		"sharded miss":      {sharded, solve.Stats{ShardedUpdates: 3, ShardedUpdateWarmHits: 2}, nil, false},
		"sharded 3 regions": {sharded, solve.Stats{}, []result{{ans: answer{warm: true, plan: planJSON{Regions: 3}}}}, false},
	} {
		err := stationary(tc.in, full, tc.after, 64, tc.win)
		if (err == nil) != tc.ok {
			t.Errorf("%s: stationary = %v, want ok=%v", name, err, tc.ok)
		}
	}
}
