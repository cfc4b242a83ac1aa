package core

import "math/rand"

// aliasTable samples an index with probability proportional to a weight
// vector in O(1) per draw (Vose's alias method). It is rebuilt once per
// decode step from the degree-proportional candidate weights and then
// read concurrently by every decode worker; each draw takes exactly one
// Float64 from the caller's stream.
type aliasTable struct {
	prob  []float64 // acceptance threshold of each column, in [0, 1]
	alias []int     // fallback index when a draw is rejected
	total float64   // Σw; 0 when every weight is zero

	// small and large are Vose's worklists, kept to avoid a per-step
	// allocation.
	small, large []int
}

func newAliasTable(n int) *aliasTable {
	return &aliasTable{
		prob:  make([]float64, n),
		alias: make([]int, n),
		small: make([]int, 0, n),
		large: make([]int, 0, n),
	}
}

// build fills the table for non-negative weights w (len(w) == the table
// size). An index with zero weight gets acceptance 0 and an alias with
// positive weight, so it is never drawn — also when round-off leaves it
// among the worklist leftovers.
func (a *aliasTable) build(w []float64) {
	n := len(w)
	a.total = 0
	anyPos := -1
	for v, x := range w {
		a.total += x
		if x > 0 {
			anyPos = v
		}
	}
	if a.total <= 0 {
		return
	}
	scale := float64(n) / a.total
	small, large := a.small[:0], a.large[:0]
	for v, x := range w {
		a.prob[v] = x * scale
		a.alias[v] = v
		if a.prob[v] < 1 {
			small = append(small, v)
		} else {
			large = append(large, v)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		a.alias[s] = l
		a.prob[l] -= 1 - a.prob[s]
		if a.prob[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers are round-off: their scaled mass is 1 up to a few ulps.
	for _, v := range large {
		a.prob[v] = 1
	}
	for _, v := range small {
		if w[v] > 0 {
			a.prob[v] = 1
		} else {
			a.prob[v], a.alias[v] = 0, anyPos
		}
	}
	a.small, a.large = small, large
}

// draw returns an index with probability w[v]/Σw. One uniform picks the
// column (integer part of u·n) and the acceptance coin (fractional part).
// The table must have positive total weight.
func (a *aliasTable) draw(rng *rand.Rand) int {
	n := len(a.prob)
	u := rng.Float64() * float64(n)
	j := int(u)
	if j >= n {
		j = n - 1
	}
	if u-float64(j) < a.prob[j] {
		return j
	}
	return a.alias[j]
}
