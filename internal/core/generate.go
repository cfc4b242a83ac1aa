package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/obs"
	"vrdag/internal/tensor"
)

// GenOptions controls inference (Algorithm 1).
type GenOptions struct {
	T    int   // number of snapshots to generate (required)
	Seed int64 // RNG seed for this generation run

	// Source, when non-nil, supplies the random stream for this run and
	// takes precedence over Seed. Generation is otherwise read-only on the
	// model, so concurrent GenerateOpts calls on one trained model are safe
	// as long as each call gets its own Source (rand.Source values are not
	// safe for shared use).
	Source rand.Source

	// DynamicNodes enables the node addition/deletion extension of
	// Section III-H: nodes isolated for Tdel consecutive steps leave the
	// active set; new nodes join at the empirical activation rate with
	// hidden states drawn around the mean graph state.
	DynamicNodes bool
	Tdel         int // isolation threshold (default 3)

	// Parallel enables multi-goroutine decoding (default true via
	// Generate; set explicitly in GenerateOpts).
	Parallel bool
}

// Generate synthesises a dynamic attributed graph with T snapshots using
// the trained prior and decoder (Algorithm 1 of the paper).
func (m *Model) Generate(t int) (*dyngraph.Sequence, error) {
	return m.GenerateOpts(GenOptions{T: t, Seed: m.Cfg.Seed + 1, Parallel: true})
}

// GenerateOpts synthesises a sequence with explicit options.
func (m *Model) GenerateOpts(opts GenOptions) (*dyngraph.Sequence, error) {
	return m.GenerateCtx(context.Background(), opts)
}

// GenerateCtx is GenerateOpts with cooperative cancellation: ctx is
// checked once per timestep, and when it fires the partial sequence is
// discarded and the per-request pooled state released. It is a thin
// collector over the streaming engine, so its output is identical to
// GenerateStream's for the same options.
func (m *Model) GenerateCtx(ctx context.Context, opts GenOptions) (*dyngraph.Sequence, error) {
	g := &dyngraph.Sequence{N: m.Cfg.N, F: m.Cfg.F, Snapshots: make([]*dyngraph.Snapshot, 0, max(opts.T, 0))}
	err := m.generate(ctx, opts, func(s *dyngraph.Snapshot) error {
		g.Snapshots = append(g.Snapshots, s)
		return nil
	}, false, nil)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// GenerateStream runs Algorithm 1 as a producer: each finished snapshot is
// handed to yield as soon as it is decoded, and after yield returns the
// engine takes the snapshot back — its adjacency lists are reused and its
// attribute buffer returned to the tensor arena — so an in-flight
// streaming request holds O(1) snapshots resident regardless of T,
// against the O(T·(N²+N·F)) a collected sequence occupies.
//
// The snapshot passed to yield is only valid for the duration of the
// call; a consumer that needs to retain it must Clone it. A non-nil error
// from yield aborts generation and is returned verbatim. ctx is checked
// once per timestep; on cancellation the per-request buffers are released
// back to the arena and the context's error is returned. The yielded
// snapshots are identical, value for value, to the sequence GenerateOpts
// returns for the same options.
func (m *Model) GenerateStream(ctx context.Context, opts GenOptions, yield func(*dyngraph.Snapshot) error) error {
	return m.generate(ctx, opts, yield, true, nil)
}

// generate drives the stepper in streaming (recycle) or collecting mode.
// init, when non-nil, warm-starts the stepper from an encoded observation
// prefix (the forecasting path); nil reproduces unconditional generation.
func (m *Model) generate(ctx context.Context, opts GenOptions, yield func(*dyngraph.Snapshot) error, recycle bool, init *ForecastState) error {
	if opts.T <= 0 {
		return fmt.Errorf("core: GenOptions.T must be positive, got %d", opts.T)
	}
	if opts.Tdel == 0 {
		opts.Tdel = 3
	}
	st := m.newGenState(opts, recycle, init)
	defer st.release()
	traced := obs.FromContext(ctx) != nil
	for t := 0; t < opts.T; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !traced {
			if err := yield(st.step(t)); err != nil {
				return err
			}
			continue
		}
		sp := obs.Start(ctx, "decode")
		snap := st.step(t)
		sp.SetInt("t", int64(t)).SetInt("edges", int64(snap.NumEdges())).
			SetFloat("lambda", st.stats.lambda).SetInt("persisted", int64(st.stats.persisted)).
			SetFloat("cands_mean", st.stats.candsMean).End()
		if err := yield(snap); err != nil {
			return err
		}
	}
	return nil
}

// genState is the reusable stepper behind GenerateCtx and GenerateStream:
// the per-request mutable state of Algorithm 1 plus the O(N) decode
// scratch, allocated once per request instead of once per snapshot.
type genState struct {
	m    *Model
	opts GenOptions
	rng  *rand.Rand
	n    int

	h        *tensor.Matrix // H_{t-1}; starts at 0 (Algorithm 1, line 1)
	active   []bool
	isolated []int
	degree   []float64 // running degree for candidate weighting
	prevX    *tensor.Matrix
	prev     *dyngraph.Snapshot

	// timeOff shifts the model clock when generation continues an encoded
	// observation prefix: snapshot t of the run is timestep timeOff+t of
	// the combined sequence, which keeps the Time2Vec embedding, the
	// per-step edge-count targets, and the activation statistics aligned
	// with where the observed history left off. Zero for unconditional
	// generation.
	timeOff int

	// Streaming mode: a snapshot handed to the consumer is taken back once
	// it leaves the one-step history window and reused for a later
	// timestep, holding resident snapshot memory at O(1) per request.
	recycle bool
	spare   *dyngraph.Snapshot

	// Decode scratch, reused across timesteps.
	scores  []nodeScores
	weights []float64   // candidate weights: degree+1, 0 when inactive
	cands   *aliasTable // sampler over weights, rebuilt every step
	seeds   []int64
	comp    []int

	// stats describes the last decodeStructure call, for the traced path.
	stats decodeStats
}

// decodeStats are the decoder's own signals from one step, attached to the
// decode span when the request is traced.
type decodeStats struct {
	lambda    float64 // DegreeCalibration factor: target / expected edges
	persisted int     // previous-step edges replayed at the persistence rate
	candsMean float64 // mean candidate-set size over scored nodes
}

// nodeScores carries one node's candidate set, Bernoulli means, and
// mixture weights between the scoring and sampling phases of a decode.
type nodeScores struct {
	cands []int
	theta *tensor.Matrix // C×K Bernoulli means per component
	alpha []float64      // K mixture weights
}

func (m *Model) newGenState(opts GenOptions, recycle bool, init *ForecastState) *genState {
	n := m.Cfg.N
	src := opts.Source
	if src == nil {
		src = rand.NewSource(opts.Seed)
	}
	st := &genState{
		m: m, opts: opts, rng: rand.New(src), n: n, recycle: recycle,
		h:        tensor.Get(n, m.Cfg.HiddenDim),
		active:   make([]bool, n),
		isolated: make([]int, n),
		degree:   make([]float64, n),
		scores:   make([]nodeScores, n),
		weights:  make([]float64, n),
		cands:    newAliasTable(n),
		seeds:    make([]int64, n),
		comp:     make([]int, n),
	}
	for i := range st.active {
		st.active[i] = true
	}
	if init != nil {
		// Warm-start from the encoded prefix. Every injected buffer is
		// copied or cloned: the stepper mutates and recycles its state, and
		// the ForecastState must stay reusable for further Forecast calls
		// (and further EncodeSnapshot absorption) on the same session.
		copy(st.h.Data, init.h.Data)
		copy(st.degree, init.degree)
		if init.prev != nil {
			st.prev = init.prev.Clone()
		}
		if init.attrState != nil {
			st.prevX = tensor.Get(init.attrState.Rows, init.attrState.Cols)
			copy(st.prevX.Data, init.attrState.Data)
		}
		st.timeOff = init.steps
	}
	return st
}

// release returns every live buffer of an in-flight generation to the
// arena. It runs on all exit paths, including cancellation and consumer
// errors, so aborted requests leak nothing (collected snapshots, which
// have escaped to the caller, are exempt).
func (st *genState) release() {
	if st.h != nil {
		tensor.Put(st.h)
		st.h = nil
	}
	if st.prevX != nil {
		tensor.Put(st.prevX)
		st.prevX = nil
	}
	if st.recycle && st.prev != nil {
		st.prev.Recycle()
	}
	st.prev, st.spare = nil, nil
}

// takeSnapshot returns the snapshot to decode the next timestep into: the
// recycled previous-previous snapshot when streaming, a fresh one
// otherwise. The attribute matrix is attached by the decoder, so the
// structure-only allocation suffices in both modes.
func (st *genState) takeSnapshot() *dyngraph.Snapshot {
	if s := st.spare; s != nil {
		st.spare = nil
		return s
	}
	return dyngraph.NewSnapshot(st.n, 0)
}

// step decodes snapshot t and advances the recurrent state. t counts from
// zero within this run; the model clock (Time2Vec, per-step calibration
// targets) runs at timeOff+t so forecasts continue the observed timeline.
func (st *genState) step(t int) *dyngraph.Snapshot {
	m, n, rng := st.m, st.n, st.rng
	clock := st.timeOff + t

	// Line 3: sample temporal latent variables from the prior.
	mu, logSig := m.priorValue(st.h)
	z := sampleLatent(mu, logSig, rng)
	tensor.Put(mu)
	tensor.Put(logSig)
	s := concatValue(z, st.h) // S_t = [Z_t ‖ H_{t-1}]

	// Line 4: decode the adjacency via the MixBernoulli sampler.
	snap := st.takeSnapshot()
	st.stats = st.decodeStructure(snap, s, clock)

	// Line 5: decode attributes conditioned on the new topology. The
	// decoded matrix is the likelihood mean; sampling adds the
	// observation noise estimated from training residuals, then the
	// moments and lag-1 autocorrelation are matched to the training
	// statistics.
	if m.Cfg.F > 0 {
		esrc, edst := snap.EdgeLists()
		dec := m.gat.Forward(s, esrc, edst, n)
		x := m.attrMLP.Forward(dec)
		tensor.Put(dec)
		state := m.composeAttrs(x, st.prevX, rng)
		if st.prevX != nil && state != st.prevX {
			tensor.Put(st.prevX)
		}
		st.prevX = state
		snap.X = x // owned by the snapshot until it escapes or is recycled
	}

	// Line 7: update hidden states with the recurrence updater.
	eps := m.enc.EncodeValue(snap)
	gin := m.gruInputValue(eps, z, clock, n)
	hNext := m.gru.Forward(gin, st.h)
	tensor.Put(gin)
	tensor.Put(eps)
	tensor.Put(z)
	tensor.Put(s)
	tensor.Put(st.h)
	st.h = hNext

	// Bookkeeping for candidate weighting and the dynamic-node extension.
	for v := 0; v < n; v++ {
		d := snap.OutDegree(v) + snap.InDegree(v)
		st.degree[v] = 0.8*st.degree[v] + float64(d)
		if st.opts.DynamicNodes {
			if d == 0 {
				st.isolated[v]++
			} else {
				st.isolated[v] = 0
			}
		}
	}
	if st.opts.DynamicNodes {
		m.updateActiveSet(st.active, st.isolated, st.h, clock, st.opts.Tdel, rng)
	}

	// Rotate the one-step history window. The snapshot leaving it was
	// yielded an iteration ago, so in streaming mode both the consumer and
	// the engine are done with it and its buffers can be reclaimed.
	old := st.prev
	st.prev = snap
	if st.recycle && old != nil {
		old.Recycle()
		st.spare = old
	}
	return snap
}

// decodeStructure implements the one-shot MixBernoulli decoding (Eq. 11).
// For every active node it scores a candidate destination set, aggregates
// the mixture weights α_i, then samples edges from the selected component.
// With DegreeCalibration the Bernoulli means are rescaled so the expected
// edge count matches the training statistics for this timestep.
//
// Both f_θ and f_α open with a linear layer over s_i − s_j, so
// W₁(s_i − s_j) + b₁ = P_i − P_j + b₁ with P = S·W₁. P is computed once per
// step for all N nodes, and a candidate pair costs one subtract-and-LeakyReLU
// row per head plus the dh→K output layers (scoreCandidates).
func (st *genState) decodeStructure(snap *dyngraph.Snapshot, s *tensor.Matrix, t int) decodeStats {
	m, n, rng, prev := st.m, st.n, st.rng, st.prev
	active := st.active

	// Temporal persistence calibration: replay previous-step edges at the
	// training data's persistence rate before one-shot sampling fills the
	// remaining budget. Like the density calibration, this matches a
	// first-order statistic the short CPU schedule cannot learn; a
	// converged model's MixBernoulli would regenerate persistent edges
	// itself (their pair scores stay high across steps).
	persisted := 0
	if m.Cfg.DegreeCalibration && m.persistRate > 0 && prev != nil {
		for u := 0; u < n; u++ {
			if !active[u] {
				continue
			}
			for _, v := range prev.Out[u] {
				if rng.Float64() < m.persistRate && snap.AddEdge(u, v) {
					persisted++
				}
			}
		}
	}

	// Per-node scores live in the stepper's scratch. Entries left over
	// from the previous timestep have a nil theta (cleared after
	// sampling), so stale candidate sets are never re-read.
	scores := st.scores

	// Candidate weights: degree-proportional with +1 smoothing, sampled
	// through an alias table shared read-only by the workers.
	weights := st.weights
	for v := range weights {
		weights[v] = 0
		if active[v] {
			weights[v] = st.degree[v] + 1
		}
	}
	st.cands.build(weights)

	// Pre-draw per-node RNG seeds so the parallel path stays deterministic.
	// Each node's candidate draws come from a per-worker splitmix64 source
	// re-seeded per node: seeding Go's default source costs ~600 modular
	// multiplications to fill 607 state words, of which a node consumes only
	// a handful — it was ~20% of a whole generation run.
	seeds := st.seeds
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	// First layers of both heads for every node: P = S·W₁.
	pTheta, pAlpha := m.pairProjection(m.fTheta, s), m.pairProjection(m.fAlpha, s)

	work := func(i int, w *decodeWorker) {
		if !active[i] {
			return
		}
		w.src.Seed(seeds[i])
		cands := m.candidates(i, prev, st.cands, w.rng, w.mark)
		if len(cands) == 0 {
			return
		}
		theta, alpha := m.scoreCandidates(w.hidden(len(cands), pTheta.Cols), pTheta, pAlpha, i, cands)
		scores[i] = nodeScores{cands: cands, theta: theta, alpha: alpha}
	}

	if st.opts.Parallel && runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				dw := newDecodeWorker(n)
				for i := lo; i < hi; i++ {
					work(i, dw)
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		dw := newDecodeWorker(n)
		for i := 0; i < n; i++ {
			work(i, dw)
		}
	}
	tensor.Put(pTheta)
	tensor.Put(pAlpha)

	// Choose mixture components and collect Bernoulli means.
	comp := st.comp
	expected := 0.0
	scored, pairs := 0, 0
	for i := 0; i < n; i++ {
		sc := &scores[i]
		if sc.theta == nil {
			continue
		}
		scored++
		pairs += len(sc.cands)
		comp[i] = sampleCategorical(sc.alpha, rng)
		for k := range sc.cands {
			expected += sc.theta.At(k, comp[i])
		}
	}

	// Density calibration against the training statistics (persisted
	// edges consume part of the budget).
	lambda := 1.0
	if m.Cfg.DegreeCalibration && expected > 0 {
		target := m.edgeTarget(t) - float64(persisted)
		if target < 0 {
			target = 0
		}
		lambda = target / expected
	}

	// Bernoulli sampling (serial for determinism).
	for i := 0; i < n; i++ {
		sc := &scores[i]
		if sc.theta == nil {
			continue
		}
		k := comp[i]
		for c, j := range sc.cands {
			p := sc.theta.At(c, k) * lambda
			if p > 1 {
				p = 1
			}
			if rng.Float64() < p {
				snap.AddEdge(i, j)
			}
		}
		tensor.Put(sc.theta)
		sc.theta = nil
	}

	stats := decodeStats{lambda: lambda, persisted: persisted}
	if scored > 0 {
		stats.candsMean = float64(pairs) / float64(scored)
	}
	return stats
}

// decodeWorker is one decode goroutine's private scratch, reused for every
// node it scores: the per-node candidate RNG, the candidate-dedup marks,
// and the C×dh hidden rows of scoreCandidates.
type decodeWorker struct {
	src  splitmixSource
	rng  *rand.Rand
	mark []bool
	hid  tensor.Matrix
}

func newDecodeWorker(n int) *decodeWorker {
	w := &decodeWorker{mark: make([]bool, n)}
	w.rng = rand.New(&w.src)
	return w
}

// hidden returns the worker's hidden-row scratch shaped rows×cols. Its
// contents are stale; scoreCandidates overwrites every element.
func (w *decodeWorker) hidden(rows, cols int) *tensor.Matrix {
	need := rows * cols
	if cap(w.hid.Data) < need {
		w.hid.Data = make([]float64, need)
	}
	w.hid.Rows, w.hid.Cols, w.hid.Data = rows, cols, w.hid.Data[:need]
	return &w.hid
}

// pairProjection returns P = S·W₁ for the first layer of a two-layer
// MixBernoulli head (pooled; the caller Puts it). The bias is left out:
// it survives the pairwise difference once and is added per pair.
func (m *Model) pairProjection(head *nn.MLP, s *tensor.Matrix) *tensor.Matrix {
	w := head.Layers[0].W.Value
	p := tensor.Get(s.Rows, w.Cols)
	tensor.MatMulInto(p, s, w)
	return p
}

// scoreCandidates evaluates f_θ and f_α on the pairs (i, j), j ∈ cands,
// from the step's projections pTheta = S·W₁θ and pAlpha = S·W₁α: the
// hidden row of a pair is leaky(P_i − P_j + b₁), and only the dh→K output
// layers run per pair, through the backend GEMM. The α head is linear, so
// Σ_j f_α(s_i − s_j) = (Σ_j h_j)·W₂ + C·b₂ runs it once on the summed
// hidden rows. hid is C×dh scratch. It returns the C×K Bernoulli means
// (pooled; the caller Puts them) and the K mixture weights
// α_i = softmax(Σ_j f_α(s_i − s_j)).
func (m *Model) scoreCandidates(hid, pTheta, pAlpha *tensor.Matrix, i int, cands []int) (*tensor.Matrix, []float64) {
	pairHidden(hid, pTheta, m.fTheta.Layers[0].B.Value.Data, i, cands)
	theta := m.fTheta.Layers[1].Forward(hid) // C×K logits
	tensor.VSigmoid(theta.Data)
	pairHidden(hid, pAlpha, m.fAlpha.Layers[0].B.Value.Data, i, cands)
	hSum := tensor.Get(1, hid.Cols)
	hs := hSum.Data
	for k := range cands {
		for c, v := range hid.Row(k)[:len(hs)] {
			hs[c] += v
		}
	}
	head := m.fAlpha.Layers[1]
	aSum := tensor.Get(1, head.Out)
	tensor.MatMulInto(aSum, hSum, head.W.Value)
	tensor.Put(hSum)
	for c, b := range head.B.Value.Data {
		aSum.Data[c] += float64(len(cands)) * b
	}
	alpha := make([]float64, m.Cfg.K)
	tensor.SoftmaxSlice(alpha, aSum.Data)
	tensor.Put(aSum)
	return theta, alpha
}

// pairHidden fills row k of hid with leaky(P_i − P_cands[k] + b), the
// first-layer activation of a MixBernoulli head on s_i − s_cands[k].
func pairHidden(hid, p *tensor.Matrix, b []float64, i int, cands []int) {
	d := len(b)
	pi := p.Row(i)[:d]
	for k, j := range cands {
		h, pj := hid.Row(k)[:d], p.Row(j)[:d]
		for c := range h {
			h[c] = pi[c] - pj[c] + b[c]
		}
	}
	tensor.VLeakyReLU(hid.Data, 0.2)
}

// splitmixSource is the per-node candidate RNG: a splitmix64 stream whose
// seeding is one 64-bit store, so deriving a fresh deterministic stream
// per (node, timestep) is effectively free. It only feeds candidate
// sampling — the model's main RNG (checkpointable, counting) is untouched.
type splitmixSource struct{ s uint64 }

func (s *splitmixSource) Seed(seed int64) { s.s = uint64(seed) }

func (s *splitmixSource) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// gruInputValue assembles [ε ‖ z ‖ fT(t)] without the tape into a pooled
// buffer (the caller Puts it after the GRU update).
func (m *Model) gruInputValue(eps, z *tensor.Matrix, t, n int) *tensor.Matrix {
	if !m.Cfg.UseTime2Vec {
		return concatValue(eps, z)
	}
	ft := m.t2v.EncodeValue(float64(t))
	ftN := tensor.Get(n, m.Cfg.TimeDim)
	for i := 0; i < n; i++ {
		copy(ftN.Row(i), ft.Data)
	}
	out := concatValue(eps, z, ftN)
	tensor.Put(ftN)
	return out
}

// composeAttrs turns decoded likelihood means into attribute samples with
// the training sequence's marginal moments, cross-dimension correlation,
// and lag-1 autocorrelation, via a small state-space model:
//
//	mix_t = √R²·d̃_t + √(1−R²)·ξ_t          (decoder signal + obs. noise)
//	s_t   = ρ·s_{t−1} + √(1−ρ²)·mix_t       (AR(1) latent state)
//	y_t   = T·s_t,  T = L_x·L_s⁻¹           (output correlation correction)
//	x_t   = µ + σ⊙y_t                       (marginal moments)
//
// d̃ is the decoder output standardized per dimension (its learned
// cross-node ordering survives with weight √R², the decoder's explanatory
// power from the final training epoch); ξ is i.i.d. observation noise; ρ
// is the per-dimension lag-1 autocorrelation of the training data. The
// output map T is recomputed each step from the state's empirical
// correlation L_s·L_sᵀ, so the generated attributes carry the data's
// correlation matrix exactly even when the generation-time decoder output
// is distribution-shifted. A converged decoder (R²→1) passes through up
// to an affine map; an undertrained one degrades gracefully toward the
// data's own attribute process. Disabled with DegreeCalibration=false.
//
// It writes the finished attributes into x and returns the updated latent
// state for the next step.
func (m *Model) composeAttrs(x *tensor.Matrix, prevS *tensor.Matrix, rng *rand.Rand) *tensor.Matrix {
	if !m.Cfg.DegreeCalibration || m.attrMean == nil {
		return prevS
	}
	n, f := x.Rows, x.Cols
	// Standardize the decoded means per dimension (d̃).
	for j := 0; j < f && j < len(m.attrMean); j++ {
		mean, sd := 0.0, 0.0
		for i := 0; i < n; i++ {
			mean += x.At(i, j)
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			d := x.At(i, j) - mean
			sd += d * d
		}
		sd = math.Sqrt(sd/float64(n)) + 1e-9
		for i := 0; i < n; i++ {
			x.Set(i, j, (x.At(i, j)-mean)/sd)
		}
	}
	// mix and AR state update.
	state := tensor.Get(n, f)
	for j := 0; j < f; j++ {
		r2 := 0.0
		if m.attrR2 != nil && j < len(m.attrR2) {
			r2 = m.attrR2[j]
		}
		w, nw := math.Sqrt(r2), math.Sqrt(1-r2)
		rho := 0.0
		if m.attrRho != nil && j < len(m.attrRho) {
			rho = m.attrRho[j]
		}
		if rho < 0 {
			rho = 0
		}
		if rho > 0.995 {
			rho = 0.995
		}
		ar := math.Sqrt(1 - rho*rho)
		for i := 0; i < n; i++ {
			mix := w*x.At(i, j) + nw*rng.NormFloat64()
			if prevS == nil {
				state.Set(i, j, mix)
			} else {
				state.Set(i, j, rho*prevS.At(i, j)+ar*mix)
			}
		}
	}
	// Re-standardize the state per dimension: decoder↔state feedback can
	// drift its variance across steps, and the copula map below needs
	// standard-normal coordinates.
	for j := 0; j < f; j++ {
		mean, sd := 0.0, 0.0
		for i := 0; i < n; i++ {
			mean += state.At(i, j)
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			d := state.At(i, j) - mean
			sd += d * d
		}
		sd = math.Sqrt(sd/float64(n)) + 1e-9
		for i := 0; i < n; i++ {
			state.Set(i, j, (state.At(i, j)-mean)/sd)
		}
	}
	// Output correlation correction y = s·Tᵀ with T = L_x·L_s⁻¹.
	tMat := m.outputTransform(state)
	row := make([]float64, f)
	for i := 0; i < n; i++ {
		srow := state.Row(i)
		for a := 0; a < f; a++ {
			acc := 0.0
			for b := 0; b < f; b++ {
				acc += tMat[a*f+b] * srow[b]
			}
			row[a] = acc
		}
		xrow := x.Row(i)
		for j := 0; j < f; j++ {
			xrow[j] = m.marginalMap(j, row[j])
		}
	}
	return state
}

// marginalMap sends a standard-normal output coordinate through the
// Gaussian copula onto the training data's empirical marginal: u = Φ(y),
// x = F̂⁻¹(u). Monotone, so rank (Spearman) structure is untouched; exact,
// so synthetic marginals match the data whatever its shape. Falls back to
// the linear moment map when no quantile grid is available.
func (m *Model) marginalMap(j int, y float64) float64 {
	if m.attrQuantiles == nil || j >= len(m.attrQuantiles) || len(m.attrQuantiles[j]) == 0 {
		return m.attrMean[j] + m.attrStd[j]*y
	}
	u := 0.5 * (1 + math.Erf(y/math.Sqrt2))
	q := m.attrQuantiles[j]
	pos := u * float64(len(q)-1)
	lo := int(pos)
	if lo >= len(q)-1 {
		return q[len(q)-1]
	}
	if lo < 0 {
		lo = 0
	}
	frac := pos - float64(lo)
	return q[lo]*(1-frac) + q[lo+1]*frac
}

// outputTransform returns T = L_x·L_s⁻¹ where L_x is the Cholesky factor
// of the training attribute correlation and L_s that of the state's
// per-step empirical correlation (identity fallback for degenerate cases).
func (m *Model) outputTransform(state *tensor.Matrix) []float64 {
	n, f := state.Rows, state.Cols
	ident := make([]float64, f*f)
	for i := 0; i < f; i++ {
		ident[i*f+i] = 1
	}
	if m.attrCorrChol == nil || f == 1 || n < 4 {
		return ident
	}
	// Empirical state correlation (state dims have ≈unit variance by
	// construction, but normalise anyway for robustness).
	mean := make([]float64, f)
	for i := 0; i < n; i++ {
		row := state.Row(i)
		for j := 0; j < f; j++ {
			mean[j] += row[j]
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	cov := make([]float64, f*f)
	for i := 0; i < n; i++ {
		row := state.Row(i)
		for a := 0; a < f; a++ {
			for b := 0; b < f; b++ {
				cov[a*f+b] += (row[a] - mean[a]) * (row[b] - mean[b])
			}
		}
	}
	sd := make([]float64, f)
	for j := 0; j < f; j++ {
		sd[j] = math.Sqrt(cov[j*f+j]/float64(n)) + 1e-12
	}
	corr := make([]float64, f*f)
	for a := 0; a < f; a++ {
		for b := 0; b < f; b++ {
			corr[a*f+b] = cov[a*f+b] / float64(n) / (sd[a] * sd[b])
		}
	}
	ls := cholesky(tensor.NearestCorrelation(corr, f), f)
	lsInv := invertLowerTriangular(ls, f)
	if lsInv == nil {
		return ident
	}
	// T = L_x · L_s⁻¹
	t := make([]float64, f*f)
	for a := 0; a < f; a++ {
		for b := 0; b < f; b++ {
			acc := 0.0
			for k := 0; k < f; k++ {
				acc += m.attrCorrChol[a*f+k] * lsInv[k*f+b]
			}
			t[a*f+b] = acc
		}
	}
	return t
}

// invertLowerTriangular inverts a lower-triangular matrix by forward
// substitution; returns nil when a diagonal entry is (near) zero.
func invertLowerTriangular(l []float64, f int) []float64 {
	inv := make([]float64, f*f)
	for c := 0; c < f; c++ {
		if math.Abs(l[c*f+c]) < 1e-12 {
			return nil
		}
		inv[c*f+c] = 1 / l[c*f+c]
		for r := c + 1; r < f; r++ {
			acc := 0.0
			for k := c; k < r; k++ {
				acc += l[r*f+k] * inv[k*f+c]
			}
			inv[r*f+c] = -acc / l[r*f+r]
		}
	}
	return inv
}

// edgeTarget returns the expected edge count for step t, falling back to
// the mean across training steps (or a mild default for untrained models).
func (m *Model) edgeTarget(t int) float64 {
	if len(m.edgeTargets) == 0 {
		return float64(2 * m.Cfg.N)
	}
	if t < len(m.edgeTargets) {
		return m.edgeTargets[t]
	}
	sum := 0.0
	for _, v := range m.edgeTargets {
		sum += v
	}
	return sum / float64(len(m.edgeTargets))
}

// candidates builds the destination candidate set for node i: the node's
// previous out-neighbours (temporal persistence) filled up to CandidateCap
// with degree-proportional random draws from the step's alias table.
// CandidateCap == 0 scores every other node (exact Eq. 11 decoding). mark
// is caller-provided dedup scratch of length N, false on entry; it is
// cleaned before returning so the worker can reuse it for the next node
// without reallocation.
func (m *Model) candidates(i int, prev *dyngraph.Snapshot, table *aliasTable, rng *rand.Rand, mark []bool) []int {
	n := m.Cfg.N
	limit := m.Cfg.CandidateCap
	if limit <= 0 || limit >= n-1 {
		out := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				out = append(out, j)
			}
		}
		return out
	}
	out := make([]int, 0, limit)
	defer func() {
		for _, j := range out {
			mark[j] = false
		}
	}()
	add := func(j int) {
		if j == i || mark[j] {
			return
		}
		mark[j] = true
		out = append(out, j)
	}
	if prev != nil {
		for _, j := range prev.Out[i] {
			add(j)
			if len(out) >= limit {
				return out
			}
		}
	}
	if table.total <= 0 {
		for len(out) < limit {
			add(rng.Intn(n))
		}
		return out
	}
	for attempts := 0; len(out) < limit && attempts < limit*4; attempts++ {
		add(table.draw(rng))
	}
	return out
}

// updateActiveSet applies the Section III-H extension: deletion after Tdel
// isolated steps, additions at the empirical activation rate with hidden
// states sampled around the mean graph state h̄.
func (m *Model) updateActiveSet(active []bool, isolated []int, h *tensor.Matrix, t, tdel int, rng *rand.Rand) {
	n := m.Cfg.N
	for v := 0; v < n; v++ {
		if active[v] && isolated[v] >= tdel {
			active[v] = false
			row := h.Row(v)
			for j := range row {
				row[j] = 0 // frozen: the node leaves the generative process
			}
		}
	}
	// Mean hidden state over active nodes.
	mean := make([]float64, h.Cols)
	cnt := 0
	for v := 0; v < n; v++ {
		if !active[v] {
			continue
		}
		row := h.Row(v)
		for j := range mean {
			mean[j] += row[j]
		}
		cnt++
	}
	if cnt > 0 {
		for j := range mean {
			mean[j] /= float64(cnt)
		}
	}
	// Expected additions: empirical activation rate for this step.
	rate := 0.0
	if t < len(m.activeStats) {
		rate = m.activeStats[t]
	}
	nAdd := poisson(rate, rng)
	for a := 0; a < nAdd; a++ {
		// Reactivate a random inactive node with state ~ N(h̄, 0.1²).
		v := rng.Intn(n)
		tries := 0
		for active[v] && tries < n {
			v = (v + 1) % n
			tries++
		}
		if active[v] {
			break // no inactive nodes left
		}
		active[v] = true
		isolated[v] = 0
		row := h.Row(v)
		for j := range row {
			row[j] = mean[j] + 0.1*rng.NormFloat64()
		}
	}
}

func poisson(lambda float64, rng *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large rates.
		v := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func sampleCategorical(w []float64, rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i, v := range w {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

func concatValue(parts ...*tensor.Matrix) *tensor.Matrix {
	rows := parts[0].Rows
	total := 0
	for _, p := range parts {
		total += p.Cols
	}
	out := tensor.Get(rows, total)
	off := 0
	for _, p := range parts {
		for i := 0; i < rows; i++ {
			copy(out.Row(i)[off:off+p.Cols], p.Row(i))
		}
		off += p.Cols
	}
	return out
}
