package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
	"vrdag/internal/metrics"
	"vrdag/internal/obs"
)

// The offline workload is the paper's own user flow at the paper's size,
// the path vrdag-gen takes: build the Email replica (N=1891, T=14, F=2),
// Fit with the default configuration, then stream full-length sequences.
// One process, no HTTP: the tape, Adam and the kernels dominate Fit, the
// decoder dominates generation.
const (
	// The replica and the model's initialisation are fixed inputs, so
	// every run trains on the same work; the run seed picks the
	// generation seeds.
	offlineReplicaSeed = 1
	offlineModelSeed   = 1
	offlineEpochs      = 5
	// 15 sequences of 14 steps give 210 decode steps, enough for a p95.
	offlineMinSequences = 15
	// InDegMMD costs about as much as generating the sequence, so it is
	// averaged over the first few sequences only.
	offlineMMDSequences = 2
	// A sequence's mean edges per step must stay within this share of
	// the replica's: calibration targets the training edge counts.
	edgeBand     = 0.25
	setupRepeats = 3
	jsdBins      = 32
)

func runOffline(o options) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, detail: map[string]any{}}
	var (
		g      *dyngraph.Sequence
		m      *core.Model
		setups []float64
	)
	for range setupRepeats {
		t0 := time.Now()
		var err error
		if g, _, err = datasets.Replica(datasets.Email, 1, offlineReplicaSeed); err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(g.N, g.F)
		cfg.Epochs = offlineEpochs
		cfg.Seed = offlineModelSeed
		m = core.New(cfg)
		setups = append(setups, time.Since(t0).Seconds())
	}
	refEdgesPerStep := float64(g.TotalTemporalEdges()) / float64(g.T())

	var ct *obs.Tracer
	if o.trace {
		ct = clientTracer()
	}
	runtime.GC()
	resetPeakRSS()
	before := readProcCounters()
	phaseStart := time.Now()

	// Fit: one op per epoch; a non-finite loss fails the epoch.
	var epochMS, losses []float64
	_, fitTr := ct.StartTrace(context.Background(), "client fit", "")
	last := time.Now()
	_, err := m.Fit(g, core.WithProgress(func(s core.TrainStats) {
		now := time.Now()
		epochMS = append(epochMS, ms64(now.Sub(last)))
		losses = append(losses, s.Loss)
		fitTr.Timed("fit.epoch", last, now.Sub(last)).SetInt("epoch", int64(s.Epoch)).End()
		out.attempted++
		if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
			out.failed++
			out.problem("epoch %d: loss %v is not finite", s.Epoch, s.Loss)
		}
		last = time.Now()
	}))
	fitTr.Finish(200)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}

	// Generate until the phase has lasted --seconds and enough steps for
	// a p95 are in. Odd sequences of a traced run are traced, even ones
	// not, so the two medians give the tracing overhead.
	var (
		steps                samples
		tracedMS, untracedMS []float64
		genDur               time.Duration
		genEdges             int
		jsds                 []float64
		kept                 []*dyngraph.Sequence
		seqEdgesPerStep      []float64
	)
	for k := 0; k < offlineMinSequences || time.Since(phaseStart) < time.Duration(o.seconds)*time.Second; k++ {
		ctx := context.Background()
		var tr *obs.Trace
		if k%2 == 1 {
			ctx, tr = ct.StartTrace(ctx, "client generate", "")
		}
		seq := &dyngraph.Sequence{N: g.N, F: g.F}
		t, edges := 0, 0
		last := time.Now()
		err := m.GenerateStream(ctx, core.GenOptions{T: g.T(), Seed: mix(o.seed, 1, int64(k)), Parallel: true},
			func(s *dyngraph.Snapshot) error {
				d := time.Since(last)
				steps.ok(ms64(d))
				if tr != nil {
					tracedMS = append(tracedMS, ms64(d))
				} else {
					untracedMS = append(untracedMS, ms64(d))
				}
				genDur += d
				edges += s.NumEdges()
				tr.Timed("gen.step", last, d).SetInt("t", int64(t)).SetInt("edges", int64(s.NumEdges())).End()
				// Keep what the checks need: the whole snapshot for the
				// sequences scored by MMD (sequence 0 is also regenerated),
				// only the attributes for the rest, so the benchmark's own
				// garbage stays small beside the decoder's.
				ysp := tr.StartSpan("gen.yield")
				if k < offlineMMDSequences {
					seq.Snapshots = append(seq.Snapshots, s.Clone())
				} else {
					seq.Snapshots = append(seq.Snapshots, &dyngraph.Snapshot{N: s.N, X: s.X.Clone()})
				}
				ysp.End()
				t++
				last = time.Now()
				return nil
			})
		tr.Finish(200)
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("sequence %d: %v", k, err)
			continue
		}
		genEdges += edges
		perStep := float64(edges) / float64(seq.T())
		seqEdgesPerStep = append(seqEdgesPerStep, perStep)
		if math.Abs(perStep/refEdgesPerStep-1) > edgeBand {
			out.failed++
			out.problem("sequence %d: %.0f edges per step, replica has %.0f (band ±%.0f%%)", k, perStep, refEdgesPerStep, 100*edgeBand)
		}
		jsds = append(jsds, metrics.AttrJSD(g, seq, jsdBins))
		if k < offlineMMDSequences {
			kept = append(kept, seq)
		}
	}
	phase := time.Since(phaseStart)
	peak := peakRSSMB()
	used := readProcCounters().sub(before)

	// Checks and fidelity, outside the timed phase.
	var mmds []float64
	for _, seq := range kept {
		mmds = append(mmds, inDegMMD(g, seq))
	}
	out.attempted++
	if len(kept) == 0 {
		out.failed++
		out.problem("no sequence to regenerate")
	} else if again, err := m.GenerateOpts(core.GenOptions{T: g.T(), Seed: mix(o.seed, 1, 0), Parallel: true}); err != nil || !sameEdges(kept[0], again) {
		out.failed++
		out.problem("sequence 0 regenerated with its seed has different edge lists (err %v)", err)
	}
	if q := supportedTail(steps.n()); q < 0.95 {
		out.problem("%d decode steps support only p%g, not p95", steps.n(), 100*q)
	}

	out.e2e = map[string]float64{
		"setup_s":         median(setups),
		"peak_rss_mb":     peak,
		"fit_epoch_ms":    median(epochMS),
		"gen_edges_per_s": float64(genEdges) / genDur.Seconds(),
		"gen_indeg_mmd":   mean(mmds),
		"gen_attr_jsd":    mean(jsds),
		"p50_ms":          steps.pct(0.5),
		"p95_ms":          steps.pct(0.95),
	}
	out.detail = map[string]any{
		"phase_s":                 phase.Seconds(),
		"setup_runs_s":            setups,
		"epochs":                  len(epochMS),
		"losses":                  losses,
		"sequences":               len(seqEdgesPerStep),
		"decode_steps":            steps.n(),
		"p95_supported":           supportedTail(steps.n()) >= 0.95,
		"replica_edges_per_step":  refEdgesPerStep,
		"seq_edges_per_step_mean": mean(seqEdgesPerStep),
		"mmd_sequences":           len(mmds),
		"latency_op":              "decode step (yield to yield)",
	}
	if o.trace {
		out.spans = spanFile{
			Counters:   used.layerCounters(m, out.attempted),
			UntracedMS: untracedMS,
			TracedMS:   tracedMS,
			Traces:     collect(ct, "client"),
		}
	}
	return out, nil
}

// inDegMMD is metrics.CompareStructure(ref, gen).InDegMMD without the
// other seven Table-I metrics, which cost seconds at N=1891.
func inDegMMD(ref, gen *dyngraph.Sequence) float64 {
	return metrics.AvgMMD(ref, gen, metrics.InDegrees, 1)
}

// sameEdges reports whether two sequences have identical edge lists at
// every step.
func sameEdges(a, b *dyngraph.Sequence) bool {
	if a.T() != b.T() {
		return false
	}
	for t := range a.Snapshots {
		if !slices.Equal(a.At(t).Edges(), b.At(t).Edges()) {
			return false
		}
	}
	return true
}

func ms64(d time.Duration) float64 { return float64(d) / 1e6 }
