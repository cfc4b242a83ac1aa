package core

import (
	"bytes"
	"testing"

	"vrdag/internal/tensor"
)

// TestTapeSchedBitIdentitySequential pins the end-to-end contract of the
// scheduled tape executor on the sequential trainer: per-epoch loss stats
// (including gradient norms) and post-Fit checkpoint bytes are
// bit-identical with scheduling off, on, and on with rematerialization
// segments of various lengths.
func TestTapeSchedBitIdentitySequential(t *testing.T) {
	base := smallConfig(14, 2)
	base.TBPTT = 2
	base.Epochs = 3
	base.NeighborSample = 3

	off := base
	off.TapeSched = -1
	refStats, refBytes := fitStats(t, off)

	variants := []struct {
		name      string
		sched     int
		ckptEvery int
	}{
		{"sched-on", 1, 0},
		{"sched-on/ckpt-1", 1, 1},
		{"sched-on/ckpt-2", 1, 2},
		{"auto", 0, 0},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			cfg.TapeSched = v.sched
			cfg.CheckpointEvery = v.ckptEvery
			stats, ckpt := fitStats(t, cfg)
			if len(stats) != len(refStats) {
				t.Fatalf("%d epochs, want %d", len(stats), len(refStats))
			}
			for e := range stats {
				if stats[e] != refStats[e] {
					t.Fatalf("epoch %d: stats %+v differ from plain-executor %+v", e, stats[e], refStats[e])
				}
			}
			if !bytes.Equal(ckpt, refBytes) {
				t.Fatal("checkpoint bytes differ from the plain-executor run")
			}
		})
	}
}

// TestTapeSchedBitIdentityParallel re-runs the worker-invariance and
// Save-byte-determinism contract with the scheduled executor and
// rematerialization enabled: every (workers, schedule) combination must
// reproduce the plain single-worker run bit for bit.
func TestTapeSchedBitIdentityParallel(t *testing.T) {
	off := parallelConfig(14, 2, 1)
	off.TapeSched = -1
	refStats, refBytes := fitStats(t, off)

	for _, workers := range []int{1, 2, 8} {
		for _, v := range []struct {
			name      string
			ckptEvery int
		}{{"sched-on", 0}, {"sched-on/ckpt-1", 1}} {
			t.Run(v.name, func(t *testing.T) {
				cfg := parallelConfig(14, 2, workers)
				cfg.TapeSched = 1
				cfg.CheckpointEvery = v.ckptEvery
				stats, ckpt := fitStats(t, cfg)
				if len(stats) != len(refStats) {
					t.Fatalf("workers=%d: %d epochs, want %d", workers, len(stats), len(refStats))
				}
				for e := range stats {
					if stats[e] != refStats[e] {
						t.Fatalf("workers=%d epoch %d: stats %+v differ from plain %+v",
							workers, e, stats[e], refStats[e])
					}
				}
				if !bytes.Equal(ckpt, refBytes) {
					t.Fatalf("workers=%d: checkpoint bytes differ from the plain run", workers)
				}
			})
		}
	}
}

// TestTapeSchedPeakReduction asserts the point of the lifetime pass at the
// training level: the per-window peak of tape-owned bytes with scheduling
// on must be at most 60% of the plain executor's on a full-sequence
// window, and checkpointing must cut it further.
func TestTapeSchedPeakReduction(t *testing.T) {
	g := toyGraph(14, 2, 8, 41)
	run := func(sched, ckptEvery int) int64 {
		cfg := smallConfig(14, 2)
		cfg.Epochs = 2
		cfg.TapeSched = sched
		cfg.CheckpointEvery = ckptEvery
		m := New(cfg)
		if _, err := m.Fit(g); err != nil {
			t.Fatal(err)
		}
		return m.TapePeakLiveBytes()
	}
	plain := run(-1, 0)
	sched := run(1, 0)
	ckpt := run(1, 1)
	if sched > plain*6/10 {
		t.Fatalf("scheduled peak %d > 60%% of plain peak %d", sched, plain)
	}
	if ckpt >= sched {
		t.Fatalf("checkpointed peak %d not below scheduled peak %d", ckpt, sched)
	}
}

// TestTapeSchedCheckpointArenaBalance asserts a full Fit with
// rematerialization segments returns every pooled buffer: the arena's
// get/put delta across the run is exactly zero (dropped segment values
// must be re-tracked when rematerialized, then released exactly once).
func TestTapeSchedCheckpointArenaBalance(t *testing.T) {
	g := toyGraph(12, 2, 6, 59)
	cfg := smallConfig(12, 2)
	cfg.TBPTT = 3
	cfg.Epochs = 2
	cfg.TapeSched = 1
	cfg.CheckpointEvery = 1

	// Warm-up on a separate model so lazily built caches that outlive a
	// Fit (snapshot CSR/edge-list caches on g) don't skew the delta.
	if _, err := New(cfg).Fit(g); err != nil {
		t.Fatal(err)
	}

	m := New(cfg)
	before := tensor.ReadPoolStats()
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	after := tensor.ReadPoolStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("checkpointed Fit leaked arena buffers: %d gets vs %d puts", gets, puts)
	}
}

// TestTapeSchedEnvOverride pins the resolver: auto mode honours
// VRDAG_TAPE_SCHED, explicit settings ignore it.
func TestTapeSchedEnvOverride(t *testing.T) {
	m := New(smallConfig(8, 1))
	t.Setenv("VRDAG_TAPE_SCHED", "") // isolate from the CI sched-off leg
	if s := m.tapeSched(); s != (tensor.Sched{Lifetime: true}) {
		t.Fatalf("auto default = %+v, want lifetime on, remat off", s)
	}
	t.Setenv("VRDAG_TAPE_SCHED", "off")
	if s := m.tapeSched(); s != (tensor.Sched{}) {
		t.Fatalf("auto with VRDAG_TAPE_SCHED=off = %+v, want all off", s)
	}
	m.Cfg.TapeSched = 1
	m.Cfg.CheckpointEvery = 2
	if s := m.tapeSched(); s != (tensor.Sched{Lifetime: true, Remat: true}) {
		t.Fatalf("forced-on with env off = %+v, want all on", s)
	}
	m.Cfg.TapeSched = -1
	if s := m.tapeSched(); s != (tensor.Sched{}) {
		t.Fatalf("forced-off = %+v, want all off", s)
	}
}
