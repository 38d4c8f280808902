package metrics

import "sync"

// EMA is a classic fixed-alpha exponential moving average. The first
// observation seeds the average directly.
type EMA struct {
	mu    sync.Mutex
	alpha float64
	v     float64
	n     int64
}

// NewEMA returns an EMA with the given smoothing factor (0 < alpha <= 1).
func NewEMA(alpha float64) *EMA {
	if alpha <= 0 || alpha > 1 {
		panic("metrics: EMA alpha must be in (0, 1]")
	}
	return &EMA{alpha: alpha}
}

// Observe folds one sample into the average.
func (e *EMA) Observe(x float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		e.v = x
	} else {
		e.v = e.alpha*x + (1-e.alpha)*e.v
	}
	e.n++
}

// Value returns the current average (0 before any observation).
func (e *EMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.v
}

// Count returns the number of observations folded in.
func (e *EMA) Count() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}
