// Package core implements VRDAG, the paper's contribution: a variational
// recurrent generator for dynamic attributed directed graphs.
//
// The model follows Section III of the paper:
//
//   - a bi-flow GNN encoder ε preserves directed structure and attributes
//     of each snapshot (Eq. 5-7, package gnn);
//   - a learnable prior p_ϕ(Z_t|H_{t-1}) and posterior q_ψ(Z_t|ε(G_t),
//     H_{t-1}) sample per-node latent variables (Eq. 3-4, 8-9);
//   - an attributed graph generator decodes a snapshot from S_t =
//     [Z_t‖H_{t-1}]: a MixBernoulli sampler for directed topology (Eq. 11)
//     followed by a GAT-based attribute decoder (Eq. 12);
//   - a GRU recurrence updater folds ε(G_t), Z_t and a Time2Vec embedding
//     of t into the hidden node states (Eq. 13);
//   - training maximises the step-wise ELBO (Eq. 14): KL(q‖p) + BCE
//     structure reconstruction + scaled-cosine attribute reconstruction.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"vrdag/internal/gnn"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// Config collects the model hyper-parameters. Zero values are replaced by
// the defaults documented on each field.
type Config struct {
	N int // number of nodes (required)
	F int // attribute dimensionality (0 = structure-only)

	HiddenDim  int // d_h, recurrent hidden state size (default 16)
	LatentDim  int // d_z, latent variable size (default 8)
	EncoderDim int // d_ε, snapshot-encoder output size (default 16)
	TimeDim    int // d_T, Time2Vec dimensionality (default 4)
	K          int // MixBernoulli component count (default 2)

	EncoderLayers int // L, bi-flow message-passing layers (default 2)
	MLPLayers     int // L_m, depth of per-stream GIN MLPs (default 1)

	Epochs     int     // training epochs over the sequence (default 30)
	LR         float64 // Adam learning rate (default 5e-3)
	KLWeight   float64 // weight on the prior-matching loss (default 1e-2)
	SCEAlpha   float64 // α of the scaled cosine error, Eq. 18 (default 2)
	NegSamples int     // Q, negative pairs per node per step (default 5)
	GradClip   float64 // global-norm gradient clip (default 5)

	// NeighborSample caps each node's in/out neighbourhood to r sampled
	// neighbours during encoder message passing (the paper's r, §III-G);
	// 0 uses the full neighbourhood.
	NeighborSample int
	// TBPTT truncates backpropagation through time to windows of this
	// many snapshots (one optimizer step per window); 0 backpropagates
	// through the full sequence.
	TBPTT int

	// ParallelWindows opts in to the window-parallel training engine: a
	// tape-free forward pass computes detached hidden-state seeds at every
	// TBPTT window boundary, all windows then run concurrently on
	// per-worker tapes, and their gradients are accumulated in window
	// order into a single optimizer step per epoch. Results are
	// bit-identical for any worker count (per-timestep random streams are
	// derived from Seed, epoch, and timestep rather than drawn from the
	// shared model rng). Off by default: the sequential path takes one
	// Adam step per window, which converges faster on very short
	// schedules; see docs/ARCHITECTURE.md "Training at scale".
	ParallelWindows bool
	// TrainWorkers caps the number of concurrent window workers when
	// ParallelWindows is set (0 = GOMAXPROCS). The worker count never
	// changes the trained weights, only the wall-time.
	TrainWorkers int

	// TapeSched selects the tape executor for training: 0 (auto) enables
	// the scheduled executor — lifetime release of dead intermediates
	// mid-Backward, plus rematerialization when CheckpointEvery is set —
	// unless the VRDAG_TAPE_SCHED environment variable is "0" or "off";
	// 1 forces it on; -1 forces the plain record-order executor. Like TrainWorkers it is a scheduling
	// hint, never a model hyper-parameter: losses, gradients, and trained
	// weights are bit-identical in every mode (pinned by
	// tensor.AssertSchedEquiv and the core scheduling tests).
	TapeSched int
	// CheckpointEvery opts in to gradient checkpointing: each TBPTT window
	// is recorded as rematerialization segments of this many timesteps,
	// whose intermediate values are dropped after the forward pass and
	// recomputed during Backward. 0 disables checkpointing. Trades ~1/3
	// more forward FLOPs for a peak-memory footprint that scales with the
	// segment length instead of the window length, which is what makes 4×
	// longer windows trainable in roughly flat memory. Results remain
	// bit-identical. Ignored when the scheduler is off.
	CheckpointEvery int

	// CheckpointPath, when non-empty, makes Fit write an atomic resume
	// checkpoint (parameters, Adam moments, epoch and RNG cursor) after
	// every CheckpointEveryEpochs completed epochs, and resume from that
	// file when it exists at the next Fit. A run interrupted at any point
	// and resumed produces Save bytes identical to an uninterrupted run
	// (pinned by TestFitResumeBitIdentical); the file is removed when Fit
	// completes. Like TrainWorkers this is a durability hint, not a model
	// hyper-parameter: Save zeroes it.
	CheckpointPath string
	// CheckpointEveryEpochs is the epoch interval between resume
	// checkpoints (default 1 when CheckpointPath is set).
	CheckpointEveryEpochs int

	// BiFlow toggles the bidirectional encoder (ablation switch; default
	// true). UseSCE selects the scaled cosine error over MSE for attribute
	// reconstruction (default true). UseTime2Vec toggles the temporal
	// embedding in the recurrence updater (default true).
	BiFlow      bool
	UseSCE      bool
	UseTime2Vec bool

	// CandidateCap bounds the per-node candidate set scored by the
	// MixBernoulli sampler during generation: the node's previous
	// out-neighbours plus an activity-proportional random sample, up to
	// this many. 0 (or any cap ≥ N−1) means exact O(N²) decoding.
	// DefaultConfig sets 128 at every N, keeping one-shot decoding
	// tractable on CPU.
	CandidateCap int

	// DegreeCalibration rescales edge probabilities at each generation
	// step so the expected edge count matches the per-step average
	// observed during training (default true). It compensates for the
	// short CPU training schedules used in this reproduction; relative
	// edge probabilities — the learned structure — are unaffected.
	DegreeCalibration bool

	Seed int64
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.HiddenDim, 16)
	def(&c.LatentDim, 8)
	def(&c.EncoderDim, 16)
	def(&c.TimeDim, 4)
	def(&c.K, 2)
	def(&c.EncoderLayers, 2)
	def(&c.MLPLayers, 1)
	def(&c.Epochs, 30)
	deff(&c.LR, 5e-3)
	deff(&c.KLWeight, 1e-2)
	deff(&c.SCEAlpha, 2)
	def(&c.NegSamples, 5)
	deff(&c.GradClip, 5)
	return c
}

// DefaultConfig returns the configuration used throughout the experiments,
// with all ablation switches in their paper-default positions.
func DefaultConfig(n, f int) Config {
	c := Config{N: n, F: f, BiFlow: true, UseSCE: true, UseTime2Vec: true,
		DegreeCalibration: true, CandidateCap: 128}
	return c.withDefaults()
}

// Model is a trained (or trainable) VRDAG instance.
type Model struct {
	Cfg Config

	enc *gnn.BiFlowEncoder

	// Prior network (Eq. 4): W_prior with LeakyReLU, then W^µ, W^σ heads.
	priorHid, priorMu, priorSig *nn.Linear
	// Posterior network (Eq. 9) over [ε(v_t) ‖ h_{t-1}].
	postHid, postMu, postSig *nn.Linear

	// MixBernoulli sampler heads (Eq. 11), both R^{dz+dh} → R^K.
	fAlpha, fTheta *nn.MLP

	// Attribute decoder (Eq. 12).
	gat     *gnn.GAT
	attrMLP *nn.MLP

	// Recurrence updater (Section III-D).
	t2v *nn.Time2Vec
	gru *nn.GRUCell

	adam *nn.Adam
	rng  *rand.Rand
	// rngSrc counts every draw m.rng makes, giving resume checkpoints an
	// absolute RNG cursor: fast-forwarding a fresh model's source to the
	// saved count reproduces the interrupted run's stream bit for bit.
	rngSrc *countingSource
	// tape is reused across TBPTT windows and epochs; Tape.Reset returns
	// every op output and gradient buffer to the pooled tensor arena, so
	// steady-state training allocates almost nothing.
	tape *tensor.Tape

	// workerTapes are the per-worker tapes of the window-parallel training
	// engine, grown on demand and reused across epochs like tape.
	workerTapes []*tensor.Tape

	// Statistics captured from the training sequence, used for the
	// generation-time density/attribute calibration and the node
	// add/delete extension of Section III-H.
	edgeTargets   []float64    // expected |E_t| per step
	activeStats   []float64    // mean newly-active node count per step
	persistRate   float64      // P(edge at t | edge at t−1) in the training data
	attrMean      []float64    // per-dimension attribute mean over the sequence
	attrStd       []float64    // per-dimension attribute std over the sequence
	attrRho       []float64    // per-dimension lag-1 autocorrelation
	resid         residMoments // decoder↔truth moments of the final epoch
	attrR2        []float64    // per-dimension decoder explanatory power in [0,1]
	attrCorr      []float64    // data attribute correlation matrix (F×F)
	attrQuantiles [][]float64  // per-dimension empirical quantile grid
	attrCorrChol  []float64    // Cholesky factor of attrCorr (static fallback)
	trained       bool
}

// New constructs an untrained VRDAG model.
func New(cfg Config) *Model {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		panic(fmt.Sprintf("core: Config.N must be positive, got %d", cfg.N))
	}
	src := &countingSource{src: rand.NewSource(cfg.Seed).(rand.Source64)}
	rng := rand.New(src)
	m := &Model{Cfg: cfg, rng: rng, rngSrc: src}

	m.enc = gnn.NewBiFlowEncoder("enc", gnn.BiFlowConfig{
		InDim: cfg.F, Hidden: cfg.HiddenDim, OutDim: cfg.EncoderDim,
		Layers: cfg.EncoderLayers, MLPLayers: cfg.MLPLayers, BiFlow: cfg.BiFlow,
	}, rng)

	dh, dz, de := cfg.HiddenDim, cfg.LatentDim, cfg.EncoderDim
	m.priorHid = nn.NewLinear("prior.hid", dh, dh, rng)
	m.priorMu = nn.NewLinear("prior.mu", dh, dz, rng)
	m.priorSig = nn.NewLinear("prior.sig", dh, dz, rng)
	m.postHid = nn.NewLinear("post.hid", de+dh, dh, rng)
	m.postMu = nn.NewLinear("post.mu", dh, dz, rng)
	m.postSig = nn.NewLinear("post.sig", dh, dz, rng)
	// Cool the log-σ heads so both distributions start near unit variance;
	// a hot start makes the first KL term dominate the ELBO by many orders
	// of magnitude and destabilises the first Adam steps.
	m.priorSig.W.Value.ScaleInPlace(0.01)
	m.postSig.W.Value.ScaleInPlace(0.01)

	ds := dz + dh
	m.fAlpha = nn.NewMLP("mix.alpha", []int{ds, dh, cfg.K}, nn.ActLeakyReLU, rng)
	m.fTheta = nn.NewMLP("mix.theta", []int{ds, dh, cfg.K}, nn.ActLeakyReLU, rng)

	m.gat = gnn.NewGAT("attr.gat", ds, dh, rng)
	m.attrMLP = nn.NewMLP("attr.mlp", []int{dh, dh, max(cfg.F, 1)}, nn.ActLeakyReLU, rng)

	m.t2v = nn.NewTime2Vec("t2v", cfg.TimeDim, rng)
	gruIn := de + dz
	if cfg.UseTime2Vec {
		gruIn += cfg.TimeDim
	}
	m.gru = nn.NewGRUCell("gru", gruIn, dh, rng)

	m.adam = nn.NewAdam(nn.CollectParams(m.Modules()...), cfg.LR)
	m.adam.Clip = cfg.GradClip
	return m
}

// tapeSched resolves Cfg.TapeSched and Cfg.CheckpointEvery into the
// tensor-layer scheduling configuration installed on every training tape.
func (m *Model) tapeSched() tensor.Sched {
	on := m.Cfg.TapeSched >= 0
	if m.Cfg.TapeSched == 0 {
		if v := os.Getenv("VRDAG_TAPE_SCHED"); v == "0" || v == "off" {
			on = false
		}
	}
	if !on {
		return tensor.Sched{}
	}
	return tensor.Sched{Lifetime: true, Remat: m.Cfg.CheckpointEvery > 0}
}

// TapePeakLiveBytes returns the high-water mark of tape-owned buffer bytes
// across the model's training tapes (the sequential tape and any
// window-parallel worker tapes). The mark survives Tape.Reset, so after a
// Fit it reports the per-window training footprint the scheduler achieved.
func (m *Model) TapePeakLiveBytes() int64 {
	var peak int64
	if m.tape != nil {
		peak = m.tape.PeakLiveBytes()
	}
	for _, tp := range m.workerTapes {
		if p := tp.PeakLiveBytes(); p > peak {
			peak = p
		}
	}
	return peak
}

// ResetTapePeakLiveBytes rewinds every training tape's high-water mark
// (benchmark phase boundaries).
func (m *Model) ResetTapePeakLiveBytes() {
	if m.tape != nil {
		m.tape.ResetPeakLiveBytes()
	}
	for _, tp := range m.workerTapes {
		tp.ResetPeakLiveBytes()
	}
}

// Modules lists every trainable sub-module.
func (m *Model) Modules() []nn.Module {
	return []nn.Module{
		m.enc,
		m.priorHid, m.priorMu, m.priorSig,
		m.postHid, m.postMu, m.postSig,
		m.fAlpha, m.fTheta,
		m.gat, m.attrMLP,
		m.t2v, m.gru,
	}
}

// NumParams returns the scalar parameter count (the paper's |θ|).
func (m *Model) NumParams() int { return nn.NumParams(m.Modules()...) }

// Trained reports whether Fit has completed at least one epoch.
func (m *Model) Trained() bool { return m.trained }

// prior evaluates the prior network on hidden states (taped).
func (m *Model) prior(c *nn.Ctx, h *tensor.Node) (mu, logSig *tensor.Node) {
	t := c.Tape
	hid := t.LeakyReLU(m.priorHid.Apply(c, h), 0.2)
	return m.priorMu.Apply(c, hid), m.priorSig.Apply(c, hid)
}

// posterior evaluates the posterior network on [ε ‖ h] (taped).
func (m *Model) posterior(c *nn.Ctx, eps, h *tensor.Node) (mu, logSig *tensor.Node) {
	t := c.Tape
	hid := t.LeakyReLU(m.postHid.Apply(c, t.ConcatCols(eps, h)), 0.2)
	return m.postMu.Apply(c, hid), m.postSig.Apply(c, hid)
}

// priorValue evaluates the prior network without the tape. Both returned
// matrices are pool-allocated; callers Put them when done.
func (m *Model) priorValue(h *tensor.Matrix) (mu, logSig *tensor.Matrix) {
	hid := m.priorHid.Forward(h)
	leakyValInPlace(hid)
	mu, logSig = m.priorMu.Forward(hid), m.priorSig.Forward(hid)
	tensor.Put(hid)
	return mu, logSig
}

func leakyValInPlace(x *tensor.Matrix) {
	x.ApplyInPlace(func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0.2 * v
	})
}

// reparameterize draws z = µ + ε·σ on the tape with constant noise. The
// noise buffer is tape-owned so Reset recycles it.
func reparameterize(t *tensor.Tape, mu, logSig *tensor.Node, rng *rand.Rand) *tensor.Node {
	noise := tensor.Get(mu.Value.Rows, mu.Value.Cols)
	for i := range noise.Data {
		noise.Data[i] = rng.NormFloat64()
	}
	return t.Add(mu, t.Mul(t.Owned(noise), t.Exp(logSig)))
}

// sampleLatent draws z = µ + ε·σ without the tape into a pooled buffer.
func sampleLatent(mu, logSig *tensor.Matrix, rng *rand.Rand) *tensor.Matrix {
	z := tensor.Get(mu.Rows, mu.Cols)
	for i, v := range mu.Data {
		z.Data[i] = v + rng.NormFloat64()*expClamp(logSig.Data[i])
	}
	return z
}

func expClamp(v float64) float64 {
	if v > 20 {
		v = 20
	}
	if v < -20 {
		v = -20
	}
	// exp computed via the tensor package's clamping convention
	return math.Exp(v)
}
