package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"vrdag/internal/core"
	"vrdag/internal/tensor"
)

// stamp identifies the host and the code a result was measured on, so
// that two results can be told apart when their numbers differ: a MatMul
// that takes twice as long on another CPU model is not a regression.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Host       string `json:"host"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Backend    string `json:"backend"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newStamp(o options) stamp {
	host, _ := os.Hostname()
	return stamp{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Host:       host,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Backend:    tensor.ActiveBackend(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the VCS revision the toolchain
// embedded when the tree was a git checkout, otherwise a hash of every
// source file under the working directory, which identifies an exported
// tree just as well.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".mod") || strings.HasSuffix(p, ".s")) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// resetPeakRSS rewinds the kernel's resident-set high-water mark so that
// peakRSSMB covers only what follows. Best effort: where the kernel
// refuses, the peak also covers set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// procCounters are the Go runtime and tensor-arena counters a timed
// phase is charged with, as deltas between two readings.
type procCounters struct {
	allocBytes uint64
	gcPauseNs  uint64
	arenaGets  int64
	arenaHits  int64
}

func readProcCounters() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps := tensor.ReadPoolStats()
	return procCounters{allocBytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs, arenaGets: ps.Gets, arenaHits: ps.Hits}
}

func (c procCounters) sub(b procCounters) procCounters {
	return procCounters{
		allocBytes: c.allocBytes - b.allocBytes,
		gcPauseNs:  c.gcPauseNs - b.gcPauseNs,
		arenaGets:  c.arenaGets - b.arenaGets,
		arenaHits:  c.arenaHits - b.arenaHits,
	}
}

// layerCounters are the per-layer metrics that come from counters rather
// than spans, charged to a timed phase of ops operations. The ingest and
// cluster counters read 0 here; the workload that has them sets them.
func (c procCounters) layerCounters(m *core.Model, ops int) map[string]float64 {
	hit := 0.0
	if c.arenaGets > 0 {
		hit = 100 * float64(c.arenaHits) / float64(c.arenaGets)
	}
	return map[string]float64{
		"durable.snapshots":        0,
		"cluster.retries":          0,
		"ingest.edges_per_req":     0,
		"tensor.peak_live_tape_mb": float64(m.TapePeakLiveBytes()) / (1 << 20),
		"tensor.arena_hit_pct":     hit,
		"process.alloc_mb_per_op":  float64(c.allocBytes) / (1 << 20) / float64(max(ops, 1)),
		"process.gc_pause_ms":      float64(c.gcPauseNs) / 1e6,
	}
}
