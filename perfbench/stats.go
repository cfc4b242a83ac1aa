package main

import (
	"math"
	"sort"
)

// failedMS is what a latency percentile reads when it falls on a failed
// or refused operation: such an operation misses every latency limit, so
// it sorts above every success, and JSON has no infinity to print.
const failedMS = 1e9

// samples collects one latency distribution in milliseconds. A failed
// operation is recorded as +Inf so that it counts against every
// percentile instead of vanishing from the distribution.
type samples struct {
	v []float64
}

func (s *samples) ok(ms float64) { s.v = append(s.v, ms) }
func (s *samples) fail()         { s.v = append(s.v, math.Inf(1)) }
func (s *samples) n() int        { return len(s.v) }

// pct returns the q-th percentile (0 < q < 1) by nearest rank, with a
// failure read as failedMS.
func (s *samples) pct(q float64) float64 {
	return finite(percentile(s.v, q))
}

// percentile is the nearest-rank percentile of xs: the smallest value
// with at least q·n values at or below it. It sorts a copy; NaN for an
// empty set.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := rank(q, len(s)) - 1
	k = min(max(k, 0), len(s)-1)
	return s[k]
}

// rank is the 1-based nearest-rank position ⌈q·n⌉, immune to q·n landing
// a rounding error above a whole number (0.95·200 is not exactly 190).
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return failedMS
	}
	return x
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// supportedTail returns the highest percentile of tailLadder that has at
// least ten samples beyond it among n samples (the nearest-rank position
// of q leaves n−⌈q·n⌉ samples above), or 0 when not even the median
// does. A p95 therefore needs at least 200 samples.
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if n-rank(q, n) >= 10 {
			best = q
		}
	}
	return best
}
