package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		want   float64
	}{
		{1, 50, 1}, {1, 90, 1},
		{2, 50, 1}, {3, 50, 2}, {4, 50, 2},
		{10, 90, 9}, {100, 90, 90}, {101, 90, 91},
		{100, 50, 50}, {100, 100, 100}, {7, 1, 1},
	} {
		if got := nearestRank(seq(tc.n), tc.pct); got != tc.want {
			t.Errorf("p%d of 1..%d = %v, want %v", tc.pct, tc.n, got, tc.want)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	// 100 samples: rank 90 leaves exactly 10 beyond it.
	if v, err := tailPercentile(seq(100), 90); err != nil || v != 90 {
		t.Fatalf("p90 of 100 samples = %v, %v; want 90", v, err)
	}
	// 99 samples: rank ceil(89.1) = 90 leaves only 9.
	if _, err := tailPercentile(seq(99), 90); err == nil {
		t.Fatal("p90 of 99 samples reported; it leaves 9 samples beyond it")
	}
	if _, err := tailPercentile(nil, 90); err == nil {
		t.Fatal("p90 of no samples reported")
	}
	// p50 needs only 20 samples.
	if _, err := tailPercentile(seq(20), 50); err != nil {
		t.Fatalf("p50 of 20 samples refused: %v", err)
	}
	if _, err := tailPercentile(seq(19), 50); err == nil {
		t.Fatal("p50 of 19 samples reported; it leaves 9 beyond it")
	}
}

func TestWindowCountsFailures(t *testing.T) {
	w := &window{elapsed: 2 * time.Second}
	for i := 0; i < 8; i++ {
		w.add(time.Duration(i+1)*time.Millisecond, 0, true)
	}
	w.add(time.Millisecond, 0, false)
	w.add(time.Millisecond, 0, false)
	if w.attempted() != 10 || w.failures() != 2 {
		t.Fatalf("attempted %d failed %d, want 10 and 2", w.attempted(), w.failures())
	}
	if got := w.okRatio(); got != 0.8 {
		t.Errorf("ok ratio %v, want 0.8", got)
	}
	// Only correct operations count toward throughput: 8 in 2 s.
	if got := w.throughput(); got != 4 {
		t.Errorf("throughput %v, want 4", got)
	}
	// A failed operation is a miss: it sorts last, charged the whole window,
	// however fast the failure came back.
	lat := w.sortedLatencies()
	if lat[8] != 2000 || lat[9] != 2000 {
		t.Errorf("failed operations sorted as %v, want the window length 2000 ms", lat[8:])
	}
	if got := nearestRank(lat, 50); got != 5 {
		t.Errorf("p50 %v, want 5", got)
	}
}

func TestSlicedMedian(t *testing.T) {
	// 2.5 s in 1 s slices: two slices, the second taking the last half
	// second.  The first slice's median is 10; the second holds 20, 30, 40
	// and a failure charged the whole window, so its median is 30.
	w := &window{elapsed: 2500 * time.Millisecond}
	for _, op := range []struct {
		ms, sent int
		ok       bool
	}{{10, 0, true}, {10, 100, true}, {99, 200, true}, {20, 1000, true}, {30, 1500, true}, {40, 2100, true}, {1, 2400, false}} {
		w.add(time.Duration(op.ms)*time.Millisecond, time.Duration(op.sent)*time.Millisecond, op.ok)
	}
	if got := w.slicedMedian(time.Second); got != 20 {
		t.Errorf("sliced median %v, want (10 + 30) / 2 = 20", got)
	}
	// A window shorter than one slice is one slice.
	w = &window{elapsed: 500 * time.Millisecond}
	w.add(3*time.Millisecond, 0, true)
	if got := w.slicedMedian(time.Second); got != 3 {
		t.Errorf("sliced median of one sample %v, want 3", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedianDiffIsTwoSided(t *testing.T) {
	if got := medianDiff(10, 12.5); got != 0.25 {
		t.Fatalf("rise: got %v, want 0.25", got)
	}
	if got := medianDiff(10, 7.5); got != 0.25 {
		t.Fatalf("fall: got %v, want 0.25", got)
	}
	if got := medianDiff(0, 0); got != 0 {
		t.Fatalf("zero medians: got %v, want 0", got)
	}
	if got := medianDiff(0, 1); !math.IsInf(got, 1) {
		t.Fatalf("zero first median: got %v, want +Inf", got)
	}
}
