package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
	"vrdag/internal/tensor"
)

// Training-path benchmark: wall-time, throughput, and allocation profile
// of the TBPTT training loop, comparing the sequential engine against the
// window-parallel engine at several worker counts. Emitted as a JSON
// array so CI can archive the trajectory next to BENCH_tensor.json and
// BENCH_serve.json.

type trainOptions struct {
	scale   float64
	epochs  int
	window  int
	workers string // CSV of parallel worker counts; 0 = GOMAXPROCS
	seed    int64
	out     string
}

type trainResult struct {
	Name   string `json:"name"`
	Engine string `json:"engine"` // "sequential" or "parallel"
	// Backend names the tensor kernel set the run executed on (purego,
	// tuned, avx2, neon) — without it a committed artifact
	// can't be compared across hosts or VRDAG_BACKEND overrides.
	Backend         string  `json:"backend"`
	Workers         int     `json:"workers,omitempty"`
	N               int     `json:"n"`
	T               int     `json:"t"`
	Window          int     `json:"tbptt_window"`
	WindowsPerEpoch int     `json:"windows_per_epoch"`
	Epochs          int     `json:"epochs"`
	EpochMS         float64 `json:"epoch_ms"`
	WindowsPerSec   float64 `json:"windows_per_sec"`
	BytesPerEpoch   uint64  `json:"bytes_per_epoch"`
	AllocsPerEpoch  uint64  `json:"allocs_per_epoch"`
	SpeedupVs1      float64 `json:"speedup_vs_1_worker,omitempty"`
	FinalLoss       float64 `json:"final_loss"`
	// PeakLiveTape is the high-water mark of tape-owned buffer bytes
	// across the run's training tapes — what the scheduled executor's
	// lifetime and rematerialization passes actually bound. PeakRSSBytes
	// is the process view of the same phase (VmHWM, reset per scenario).
	PeakLiveTape int64 `json:"peak_live_tape_bytes"`
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

func runTrainBench(o trainOptions) error {
	g, dsCfg, err := datasets.Replica(datasets.Email, o.scale, o.seed)
	if err != nil {
		return err
	}
	window := o.window
	if window <= 0 || window > g.T() {
		window = g.T()
	}

	baseCfg := func() core.Config {
		cfg := core.DefaultConfig(g.N, g.F)
		cfg.Epochs = o.epochs
		cfg.TBPTT = o.window
		cfg.Seed = o.seed
		return cfg
	}

	measure := func(name, engine string, workers int, cfg core.Config, seq *dyngraph.Sequence) (trainResult, error) {
		win := cfg.TBPTT
		if win <= 0 || win > seq.T() {
			win = seq.T()
		}
		windowsPerEpoch := (seq.T() + win - 1) / win

		// One throwaway epoch warms the arena, tapes, and CSR caches so
		// the measured run reflects steady state.
		warm := cfg
		warm.Epochs = 1
		if _, err := core.New(warm).Fit(seq); err != nil {
			return trainResult{}, fmt.Errorf("%s warm-up: %w", name, err)
		}

		m := core.New(cfg)
		// Return retained heap to the OS before resetting the RSS
		// high-water mark, so each scenario's peak_rss_bytes reflects its
		// own working set rather than whatever earlier scenarios grew the
		// heap to.
		debug.FreeOSMemory()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resetPeakRSS()
		start := time.Now()
		stats, err := m.Fit(seq)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return trainResult{}, fmt.Errorf("%s: %w", name, err)
		}
		epochs := float64(cfg.Epochs)
		epochMS := float64(elapsed.Microseconds()) / 1000 / epochs
		return trainResult{
			Name:            name,
			Engine:          engine,
			Backend:         tensor.ActiveBackend(),
			Workers:         workers,
			N:               seq.N,
			T:               seq.T(),
			Window:          win,
			WindowsPerEpoch: windowsPerEpoch,
			Epochs:          cfg.Epochs,
			EpochMS:         epochMS,
			WindowsPerSec:   float64(windowsPerEpoch) / (epochMS / 1000),
			BytesPerEpoch:   (after.TotalAlloc - before.TotalAlloc) / uint64(cfg.Epochs),
			AllocsPerEpoch:  (after.Mallocs - before.Mallocs) / uint64(cfg.Epochs),
			FinalLoss:       stats.Loss,
			PeakLiveTape:    m.TapePeakLiveBytes(),
			PeakRSSBytes:    peakRSS(),
		}, nil
	}

	var results []trainResult

	seq, err := measure("train/sequential", "sequential", 0, baseCfg(), g)
	if err != nil {
		return err
	}
	results = append(results, seq)

	// Same schedule with the scheduled tape executor forced off: the
	// peak_live_tape_bytes delta against train/sequential is the lifetime
	// pass's saving (results are bit-identical by contract).
	offCfg := baseCfg()
	offCfg.TapeSched = -1
	off, err := measure("train/sequential/sched-off", "sequential", 0, offCfg, g)
	if err != nil {
		return err
	}
	results = append(results, off)

	var oneWorkerMS float64
	for _, field := range strings.Split(o.workers, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		w, err := strconv.Atoi(field)
		if err != nil {
			return fmt.Errorf("bad -train-workers entry %q: %w", field, err)
		}
		label := strconv.Itoa(w)
		if w <= 0 {
			w = 0
			label = fmt.Sprintf("gomaxprocs(%d)", runtime.GOMAXPROCS(0))
		}
		cfg := baseCfg()
		cfg.ParallelWindows = true
		cfg.TrainWorkers = w
		r, err := measure("train/parallel/"+label, "parallel", w, cfg, g)
		if err != nil {
			return err
		}
		effective := w
		if effective == 0 {
			effective = runtime.GOMAXPROCS(0)
		}
		if effective == 1 && oneWorkerMS == 0 {
			oneWorkerMS = r.EpochMS
		}
		if oneWorkerMS > 0 {
			r.SpeedupVs1 = oneWorkerMS / r.EpochMS
		}
		results = append(results, r)
	}

	// Long-window scenario: the same replica generated with 4× the
	// timesteps. The flat row windows it at the original T; the ckpt row
	// backpropagates through the whole 4×T sequence as one window with
	// gradient checkpointing, which is what keeps its peak memory near the
	// flat row's instead of 4× it.
	longDSCfg := dsCfg
	longDSCfg.T *= 4
	longSeq := datasets.Generate(longDSCfg)
	longEpochs := o.epochs
	if longEpochs > 2 {
		longEpochs = 2
	}
	flatCfg := core.DefaultConfig(longSeq.N, longSeq.F)
	flatCfg.Epochs = longEpochs
	flatCfg.TBPTT = g.T()
	flatCfg.Seed = o.seed
	flat, err := measure("train/longwindow/flat", "sequential", 0, flatCfg, longSeq)
	if err != nil {
		return err
	}
	results = append(results, flat)

	ckptCfg := core.DefaultConfig(longSeq.N, longSeq.F)
	ckptCfg.Epochs = longEpochs
	ckptCfg.TBPTT = 0 // one window over the whole 4×T sequence
	ckptCfg.Seed = o.seed
	ckptCfg.CheckpointEvery = 2
	ckpt, err := measure("train/longwindow/ckpt", "sequential", 0, ckptCfg, longSeq)
	if err != nil {
		return err
	}
	results = append(results, ckpt)

	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if o.out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(o.out, data, 0o644)
}
