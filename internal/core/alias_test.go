package core

import (
	"math"
	"math/rand"
	"testing"
)

// checkAliasStructure asserts that no draw, for any uniform, can land on a
// zero-weight index: such an index accepts nothing, and every column that
// can reject aliases to a positive weight.
func checkAliasStructure(t *testing.T, a *aliasTable, w []float64) {
	t.Helper()
	for j, p := range a.prob {
		if p < 0 || p > 1 {
			t.Fatalf("column %d: acceptance %g outside [0, 1]", j, p)
		}
		if w[j] == 0 && p != 0 {
			t.Fatalf("zero-weight column %d accepts with probability %g", j, p)
		}
		if p < 1 && w[a.alias[j]] == 0 {
			t.Fatalf("column %d (acceptance %g) aliases to zero-weight index %d", j, p, a.alias[j])
		}
	}
}

// zeroSource makes rand.Float64 return exactly 0, the draw at which a
// binary search over a CDF lands on index 0 whatever its weight.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

func TestAliasTableNeverDrawsZeroWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		w := make([]float64, n)
		pos := 0
		for v := range w {
			if rng.Float64() < 0.3 {
				continue // inactive
			}
			// Exponentially decayed degrees plus one, as in decoding:
			// values with no exact binary sum, so the worklists end with
			// round-off leftovers.
			w[v] = 1 + 0.8*rng.Float64()*float64(rng.Intn(50)) + 0.1
			pos++
		}
		if pos == 0 {
			w[rng.Intn(n)] = 0.3
		}
		a := newAliasTable(n)
		a.build(w)
		checkAliasStructure(t, a, w)
		if w[0] == 0 {
			if j := a.draw(rand.New(zeroSource{})); w[j] == 0 {
				t.Fatalf("trial %d: u=0 drew zero-weight index %d", trial, j)
			}
		}
		for d := 0; d < 2000; d++ {
			if j := a.draw(rng); w[j] == 0 {
				t.Fatalf("trial %d: drew zero-weight index %d", trial, j)
			}
		}
	}
}

func TestAliasTableFrequencies(t *testing.T) {
	w := []float64{0, 5.2, 1, 0, 3.3, 1, 12.8, 0.4, 2.5, 0, 1, 7.1}
	a := newAliasTable(len(w))
	a.build(w)
	checkAliasStructure(t, a, w)
	const draws = 1_000_000
	counts := make([]int, len(w))
	rng := rand.New(rand.NewSource(42))
	for d := 0; d < draws; d++ {
		counts[a.draw(rng)]++
	}
	total := 0.0
	for _, x := range w {
		total += x
	}
	chi2, df := 0.0, -1
	for v, x := range w {
		if x == 0 {
			if counts[v] != 0 {
				t.Fatalf("zero-weight index %d drawn %d times", v, counts[v])
			}
			continue
		}
		exp := draws * x / total
		d := float64(counts[v]) - exp
		chi2 += d * d / exp
		df++
	}
	// df = 7; P(χ²₇ > 29.9) ≈ 1e-4.
	if chi2 > 29.9 {
		t.Fatalf("χ² = %.2f over %d degrees of freedom; counts %v", chi2, df, counts)
	}
}

func TestAliasTableEdgeCases(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		w := []float64{2, 2, 2, 2, 2}
		a := newAliasTable(len(w))
		a.build(w)
		for j, p := range a.prob {
			if p != 1 {
				t.Fatalf("uniform column %d acceptance %g, want 1", j, p)
			}
		}
		counts := make([]int, len(w))
		rng := rand.New(rand.NewSource(1))
		for d := 0; d < 50_000; d++ {
			counts[a.draw(rng)]++
		}
		for j, c := range counts {
			if math.Abs(float64(c)-10_000) > 500 {
				t.Fatalf("uniform counts %v: index %d off", counts, j)
			}
		}
	})
	t.Run("single", func(t *testing.T) {
		w := make([]float64, 9)
		w[6] = 0.7
		a := newAliasTable(len(w))
		a.build(w)
		checkAliasStructure(t, a, w)
		rng := rand.New(rand.NewSource(2))
		for d := 0; d < 10_000; d++ {
			if j := a.draw(rng); j != 6 {
				t.Fatalf("drew %d, want the only positive weight 6", j)
			}
		}
		if j := a.draw(rand.New(zeroSource{})); j != 6 {
			t.Fatalf("u=0 drew %d, want 6", j)
		}
	})
	t.Run("leftovers", func(t *testing.T) {
		// Σw overflows, so every scaled weight is 0 and the whole table is
		// worklist leftovers; the zero weights must still be unreachable.
		w := []float64{0, math.MaxFloat64, 0, math.MaxFloat64, 0}
		a := newAliasTable(len(w))
		a.build(w)
		checkAliasStructure(t, a, w)
		if j := a.draw(rand.New(zeroSource{})); w[j] == 0 {
			t.Fatalf("u=0 drew zero-weight index %d", j)
		}
	})
	t.Run("all-zero", func(t *testing.T) {
		a := newAliasTable(4)
		a.build(make([]float64, 4))
		if a.total != 0 {
			t.Fatalf("total = %g, want 0", a.total)
		}
	})
}
