package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples a reported tail percentile must leave beyond
// its rank; with fewer, the percentile is an extrapolation, not a measurement.
const minTail = 10

// nearestRank returns the nearest-rank pct-th percentile of sorted: the
// smallest sample with at least pct% of all samples at or below it.  Integer
// arithmetic keeps the rank exact (ceil(pct·n/100)).
func nearestRank(sorted []float64, pct int) float64 {
	return sorted[rankOf(len(sorted), pct)-1]
}

// rankOf is the 1-based nearest rank of the pct-th percentile among n samples.
func rankOf(n, pct int) int {
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile is nearestRank for a tail: it refuses to report when fewer
// than minTail samples lie beyond the percentile's rank.
func tailPercentile(sorted []float64, pct int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%d of no samples", pct)
	}
	if beyond := n - rankOf(n, pct); beyond < minTail {
		return 0, fmt.Errorf("p%d of %d samples leaves %d beyond it, need %d: measure longer", pct, n, beyond, minTail)
	}
	return nearestRank(sorted, pct), nil
}

// median is the nearest-rank 50th percentile of an unsorted sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 50)
}

// window is the record of one timed closed-loop window: one latency per
// attempted operation, in milliseconds, when it was sent, and which of the
// operations failed.
type window struct {
	latencies []float64
	sent      []time.Duration
	failed    []bool
	elapsed   time.Duration
}

func (w *window) add(latency, sent time.Duration, ok bool) {
	w.latencies = append(w.latencies, ms(latency))
	w.sent = append(w.sent, sent)
	w.failed = append(w.failed, !ok)
}

func (w *window) attempted() int { return len(w.latencies) }

func (w *window) failures() int {
	n := 0
	for _, f := range w.failed {
		if f {
			n++
		}
	}
	return n
}

// okRatio is correct answers over attempted operations.
func (w *window) okRatio() float64 {
	if w.attempted() == 0 {
		return 0
	}
	return float64(w.attempted()-w.failures()) / float64(w.attempted())
}

// throughput is correct operations per second of the window.
func (w *window) throughput() float64 {
	return float64(w.attempted()-w.failures()) / w.elapsed.Seconds()
}

// charged is the latency of operation i with a failed operation counted as
// a miss: it is charged the whole window, longer than any answer in it.
func (w *window) charged(i int) float64 {
	if w.failed[i] {
		return ms(w.elapsed)
	}
	return w.latencies[i]
}

// sortedLatencies returns the charged latencies in ascending order.
func (w *window) sortedLatencies() []float64 {
	s := make([]float64, len(w.latencies))
	for i := range w.latencies {
		s[i] = w.charged(i)
	}
	sort.Float64s(s)
	return s
}

// slicedMedian cuts the window into whole slices of length d by send time,
// the last one taking the remainder, and returns the mean of the slices'
// medians of charged latencies.  The machine's speed switches between
// stretches of seconds; a median over all samples jumps between the two
// speeds as their shares cross one half, while this mean moves in
// proportion to the shares.
func (w *window) slicedMedian(d time.Duration) float64 {
	k := max(1, int(w.elapsed/d))
	groups := make([][]float64, k)
	for i := range w.latencies {
		j := min(int(w.sent[i]/d), k-1)
		groups[j] = append(groups[j], w.charged(i))
	}
	sum, n := 0.0, 0
	for _, s := range groups {
		if len(s) > 0 {
			sum += median(s)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (the default "exclusive"
// method), so the steadiness report matches the acceptance check exactly.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median, or +Inf
// for a zero median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}
