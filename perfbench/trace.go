package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself carries no spans).  Spans of one request share
// its id; a replay is its own tree with its own id.
type span struct {
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Parent int           `json:"parent"` // index into the tracer's spans, -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, so the untraced path runs the same code without the bookkeeping.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, req int64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	t.spans[h].End = time.Since(t.epoch)
}

// closeOpen ends every span still open since t0, so an operation that
// failed midway leaves no unterminated span behind.
func (t *tracer) closeOpen(t0 time.Time) {
	if t == nil {
		return
	}
	from := t0.Sub(t.epoch)
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Start >= from; i-- {
		if t.spans[i].End == 0 {
			t.spans[i].End = time.Since(t.epoch)
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover (overlapping children count once).
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered := time.Duration(0)
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			c := t.spans[k]
			start, end := max(c.Start, s.Start), min(c.End, s.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = start, end
				continue
			}
			curEnd = max(curEnd, end)
		}
		covered += curEnd - curStart
		self[i] = s.dur() - covered
	}
	return self
}

// perRequest sums, for every request id, the durations (or self times, when
// self is true) of the spans with the given name, and returns one total per
// request that has such a span.
func (t *tracer) perRequest(name string, self bool) []float64 {
	var selfT []time.Duration
	if self {
		selfT = t.selfTimes()
	}
	totals := map[int64]time.Duration{}
	var order []int64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if self {
			d = selfT[i]
		}
		if _, seen := totals[s.Req]; !seen {
			order = append(order, s.Req)
		}
		totals[s.Req] += d
	}
	out := make([]float64, 0, len(order))
	for _, r := range order {
		out = append(out, ms(totals[r]))
	}
	return out
}

// medianMS is the median per-request time of the named layer in
// milliseconds, 0 when the run recorded no such span.
func (t *tracer) medianMS(name string, self bool) float64 {
	return median(t.perRequest(name, self))
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
