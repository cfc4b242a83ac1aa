package core

import (
	"context"
	"math"
	"testing"

	"vrdag/internal/dyngraph"
	"vrdag/internal/obs"
	"vrdag/internal/tensor"
)

// scoreCandidatesRef is the unfactored Eq. 11 scorer: both heads run in
// full on explicit s_i − s_j rows.
func scoreCandidatesRef(m *Model, s *tensor.Matrix, i int, cands []int) (*tensor.Matrix, []float64) {
	diff := tensor.New(len(cands), s.Cols)
	for k, j := range cands {
		d, si, sj := diff.Row(k), s.Row(i), s.Row(j)
		for c := range d {
			d[c] = si[c] - sj[c]
		}
	}
	theta := m.fTheta.Forward(diff)
	tensor.VSigmoid(theta.Data)
	aOut := m.fAlpha.Forward(diff)
	aSum := make([]float64, m.Cfg.K)
	for k := range cands {
		for c := range aSum {
			aSum[c] += aOut.At(k, c)
		}
	}
	alpha := make([]float64, m.Cfg.K)
	tensor.SoftmaxSlice(alpha, aSum)
	return theta, alpha
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// The per-step projection P = S·W₁ reassociates the first layer of both
// MixBernoulli heads; the Bernoulli means and mixture weights it yields
// must agree with the unfactored heads to rounding.
func TestScoreCandidatesMatchesUnfactored(t *testing.T) {
	const n = 24
	cfg := smallConfig(n, 1)
	cfg.CandidateCap = 6
	cfg.Epochs = 3
	m := New(cfg)
	if _, err := m.Fit(toyGraph(n, 1, 4, 11)); err != nil {
		t.Fatal(err)
	}
	st := m.newGenState(GenOptions{T: 3, Seed: 5}, false, nil)
	defer st.release()
	for tt := 0; tt < 2; tt++ {
		st.step(tt) // move H off its zero start
	}
	for v := 0; v < n; v += 5 {
		st.active[v] = false
	}
	mu, logSig := m.priorValue(st.h)
	z := sampleLatent(mu, logSig, st.rng)
	s := concatValue(z, st.h)
	for v := range st.weights {
		st.weights[v] = 0
		if st.active[v] {
			st.weights[v] = st.degree[v] + 1
		}
	}
	st.cands.build(st.weights)
	pTheta, pAlpha := m.pairProjection(m.fTheta, s), m.pairProjection(m.fAlpha, s)

	w := newDecodeWorker(n)
	checked := 0
	for i := 0; i < n; i++ {
		if !st.active[i] {
			continue
		}
		w.src.Seed(int64(1000 + i))
		cands := m.candidates(i, st.prev, st.cands, w.rng, w.mark)
		for _, j := range cands {
			if !st.active[j] && (st.prev == nil || !st.prev.HasEdge(i, j)) {
				t.Fatalf("node %d: inactive candidate %d drawn from the alias table", i, j)
			}
		}
		theta, alpha := m.scoreCandidates(w.hidden(len(cands), pTheta.Cols), pTheta, pAlpha, i, cands)
		refTheta, refAlpha := scoreCandidatesRef(m, s, i, cands)
		if theta.Rows != len(cands) || theta.Cols != cfg.K {
			t.Fatalf("node %d: theta is %dx%d, want %dx%d", i, theta.Rows, theta.Cols, len(cands), cfg.K)
		}
		for k, v := range theta.Data {
			if !relClose(v, refTheta.Data[k], 1e-12) {
				t.Fatalf("node %d: theta[%d] = %.17g, unfactored %.17g", i, k, v, refTheta.Data[k])
			}
		}
		for k, v := range alpha {
			if !relClose(v, refAlpha[k], 1e-12) {
				t.Fatalf("node %d: alpha[%d] = %.17g, unfactored %.17g", i, k, v, refAlpha[k])
			}
		}
		tensor.Put(theta)
		checked++
	}
	if checked == 0 {
		t.Fatal("no active node scored")
	}
	for _, x := range []*tensor.Matrix{pTheta, pAlpha, mu, logSig, z, s} {
		tensor.Put(x)
	}
}

// Generation is bit-identical on every compiled backend: the decoder's
// GEMMs and activations go through kernels held to the pure-Go reference,
// and everything else is plain Go.
func TestGenerateBitIdenticalAcrossBackends(t *testing.T) {
	orig := tensor.ActiveBackend()
	t.Cleanup(func() {
		if err := tensor.SetBackend(orig); err != nil {
			t.Fatal(err)
		}
	})
	const n = 20
	cfg := smallConfig(n, 2)
	cfg.CandidateCap = 5
	cfg.Epochs = 3
	m := New(cfg)
	if _, err := m.Fit(toyGraph(n, 2, 4, 8)); err != nil {
		t.Fatal(err)
	}
	var ref *dyngraph.Sequence
	refName := ""
	for _, name := range tensor.BackendNames() {
		if err := tensor.SetBackend(name); err != nil {
			t.Fatal(err)
		}
		got, err := m.GenerateOpts(GenOptions{T: 4, Seed: 21, Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refName = got, name
			continue
		}
		for tt := 0; tt < ref.T(); tt++ {
			a, b := ref.At(tt), got.At(tt)
			for u := 0; u < n; u++ {
				if len(a.Out[u]) != len(b.Out[u]) {
					t.Fatalf("%s vs %s: t=%d node %d out-degree %d vs %d", refName, name, tt, u, len(a.Out[u]), len(b.Out[u]))
				}
				for k, v := range a.Out[u] {
					if b.Out[u][k] != v {
						t.Fatalf("%s vs %s: t=%d node %d edge list differs", refName, name, tt, u)
					}
				}
			}
			for k, v := range a.X.Data {
				if math.Float64bits(v) != math.Float64bits(b.X.Data[k]) {
					t.Fatalf("%s vs %s: t=%d attribute %d = %.17g vs %.17g", refName, name, tt, k, v, b.X.Data[k])
				}
			}
		}
	}
}

// A traced generation tags every decode span with the decoder's own
// signals; the values are the ones decodeStructure computed.
func TestDecodeSpanCarriesDecoderStats(t *testing.T) {
	const n, capN, steps = 16, 5, 3
	cfg := smallConfig(n, 1)
	cfg.CandidateCap = capN
	cfg.Epochs = 2
	m := New(cfg)
	if _, err := m.Fit(toyGraph(n, 1, 4, 2)); err != nil {
		t.Fatal(err)
	}
	tc := obs.New(obs.Config{})
	ctx, tr := tc.StartTrace(context.Background(), "generate", "")
	if _, err := m.GenerateCtx(ctx, GenOptions{T: steps, Seed: 3, Parallel: true}); err != nil {
		t.Fatal(err)
	}
	tr.Finish(200)
	views := tc.Recent(1)
	if len(views) != 1 {
		t.Fatalf("Recent = %d traces, want 1", len(views))
	}
	decodes := 0
	for _, sp := range views[0].Spans {
		if sp.Name != "decode" {
			continue
		}
		decodes++
		lambda, ok := sp.Tags["lambda"].(float64)
		if !ok || !(lambda > 0) || math.IsInf(lambda, 0) {
			t.Fatalf("decode span lambda = %v, want a positive finite float", sp.Tags["lambda"])
		}
		if p, ok := sp.Tags["persisted"].(int64); !ok || p < 0 {
			t.Fatalf("decode span persisted = %v, want a non-negative int", sp.Tags["persisted"])
		}
		cm, ok := sp.Tags["cands_mean"].(float64)
		if !ok || cm <= 0 || cm > capN {
			t.Fatalf("decode span cands_mean = %v, want in (0, %d]", sp.Tags["cands_mean"], capN)
		}
	}
	if decodes != steps {
		t.Fatalf("decode spans = %d, want %d", decodes, steps)
	}
}
