package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
)

// answer is what one response claims, reduced to what the checker and the
// per-layer metrics read.
type answer struct {
	flow, exact float64
	warm        bool
	plan        planJSON
	bytes       int
}

type planJSON struct {
	Regions         int `json:"regions"`
	OuterIterations int `json:"outer_iterations"`
	RegionSolves    int `json:"region_solves"`
	RegionSkips     int `json:"region_skips"`
}

type reportJSON struct {
	FlowValue  *float64  `json:"flow_value"`
	ExactValue *float64  `json:"exact_value"`
	Plan       *planJSON `json:"plan"`
}

// recordJSON is one NDJSON line of a solve or update stream, or the body of
// a session create.
type recordJSON struct {
	Report    *reportJSON `json:"report"`
	Warm      *bool       `json:"warm"`
	SessionID string      `json:"session_id"`
	Error     any         `json:"error"`
	Code      string      `json:"code"`
	Done      bool        `json:"done"`
	Count     int         `json:"count"`
}

// withoutEdgeFlows cuts the per-edge flow array out of a report line.  It is
// most of the bytes of a grid answer and nothing the checker reads, so the
// load generator skips decoding it instead of spending its time there.
func withoutEdgeFlows(line []byte) []byte {
	key := []byte(`"edge_flows":[`)
	i := bytes.Index(line, key)
	if i < 0 {
		return line
	}
	j := bytes.IndexByte(line[i:], ']')
	if j < 0 {
		return line
	}
	// solve.Report always encodes fields after edge_flows, so the comma
	// that follows the array goes with it.
	rest := bytes.TrimPrefix(line[i+j+1:], []byte(","))
	out := make([]byte, 0, i+len(rest))
	out = append(out, line[:i]...)
	return append(out, rest...)
}

// parseStream reads a one-item NDJSON stream (a solve of one problem, or an
// update of one step): the item's record and then {"done":true,"count":1}.
func parseStream(status int, body []byte) (answer, error) {
	if status != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %.200s", status, body)
	}
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	if len(lines) != 2 {
		return answer{}, fmt.Errorf("stream has %d lines, want 2: %.200s", len(lines), body)
	}
	var item, done recordJSON
	if err := json.Unmarshal(withoutEdgeFlows(lines[0]), &item); err != nil {
		return answer{}, fmt.Errorf("item record: %w", err)
	}
	if err := json.Unmarshal(lines[1], &done); err != nil {
		return answer{}, fmt.Errorf("terminal record: %w", err)
	}
	if item.Error != nil {
		return answer{}, fmt.Errorf("item error %v (%s)", item.Error, item.Code)
	}
	if !done.Done || done.Count != 1 {
		return answer{}, fmt.Errorf("terminal record is not done/1: %s", lines[1])
	}
	a, err := item.answer()
	a.bytes = len(body)
	return a, err
}

// parseCreate reads a session-create response.
func parseCreate(status int, body []byte) (string, answer, error) {
	if status != http.StatusOK {
		return "", answer{}, fmt.Errorf("status %d: %.200s", status, body)
	}
	var rec recordJSON
	if err := json.Unmarshal(withoutEdgeFlows(body), &rec); err != nil {
		return "", answer{}, fmt.Errorf("session create: %w", err)
	}
	if rec.SessionID == "" {
		return "", answer{}, fmt.Errorf("session create returned no id")
	}
	a, err := rec.answer()
	return rec.SessionID, a, err
}

func (r recordJSON) answer() (answer, error) {
	if r.Report == nil || r.Report.FlowValue == nil || r.Report.ExactValue == nil {
		return answer{}, fmt.Errorf("record carries no report with flow and exact values")
	}
	a := answer{flow: *r.Report.FlowValue, exact: *r.Report.ExactValue}
	if r.Warm != nil {
		a.warm = *r.Warm
	}
	if r.Report.Plan != nil {
		a.plan = *r.Report.Plan
	}
	return a, nil
}

// reference is what the benchmark computed itself for one instance.
type reference struct {
	dinic float64 // exact maximum flow (Dinic on the generated graph)
	cold  float64 // cold behavioral flow, for behavioral workloads
}

// agree reports whether two exact max-flow values are equal up to
// floating-point summation order.
func agree(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// check compares an answer with the benchmark's own reference.  The
// response is not trusted: a 200 with a wrong value is a failure.
func check(solver string, a answer, ref reference) error {
	if !agree(a.exact, ref.dinic) {
		return fmt.Errorf("exact_value %v, reference max flow %v", a.exact, ref.dinic)
	}
	if solver == "behavioral" {
		// The warm substrate answer must be the cold substrate answer, bit
		// for bit.
		if a.flow != ref.cold {
			return fmt.Errorf("flow_value %v, cold behavioral solve %v", a.flow, ref.cold)
		}
		return nil
	}
	if !agree(a.flow, ref.dinic) {
		return fmt.Errorf("flow_value %v, reference max flow %v", a.flow, ref.dinic)
	}
	return nil
}
