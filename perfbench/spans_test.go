package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vrdag/internal/obs"
)

func sp(name string, start, end int64) span {
	return span{name: name, node: "node0", start: start, end: end}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ss := []span{
		{name: "POST /v1/x", node: "node0", root: true, start: 0, end: 100},
		sp("a", 10, 50),
		sp("b", 40, 70), // overlaps a: 10..70 is covered once, not 40+30
		// Another node's trace closing after the hop that carried it:
		// still a child, clipped at 100.
		{name: "POST /v1/y", node: "node1", root: true, start: 90, end: 130},
	}
	buildTree(ss)
	root := 0
	for i := range ss {
		if i != root && ss[i].parent != root {
			t.Fatalf("%s: parent %d, want the root", ss[i].name, ss[i].parent)
		}
	}
	if got := selfTime(ss, root); got != 30 {
		t.Errorf("root self time %d, want 100 - (60 covered by a∪b + 10 by the overhanging trace) = 30", got)
	}
}

func TestBuildTreeNestsByContainment(t *testing.T) {
	ss := []span{
		sp("encode", 30, 40),
		{name: "client ingest", node: "client", root: true, start: 0, end: 100},
		sp("ingest.fold", 20, 60),
		{name: "POST /v1/ingest", node: "node0", root: true, start: 5, end: 90},
		sp("encode", 45, 55),
	}
	buildTree(ss)
	parent := map[string]string{}
	for _, s := range ss {
		p := "-"
		if s.parent >= 0 {
			p = ss[s.parent].name
		}
		if prev, ok := parent[s.name]; ok && prev != p {
			t.Fatalf("%s has parents %s and %s", s.name, prev, p)
		}
		parent[s.name] = p
	}
	want := map[string]string{
		"client ingest":   "-",
		"POST /v1/ingest": "client ingest",
		"ingest.fold":     "POST /v1/ingest",
		"encode":          "ingest.fold",
	}
	for k, v := range want {
		if parent[k] != v {
			t.Errorf("parent of %s = %s, want %s", k, parent[k], v)
		}
	}
	for i := range ss {
		if ss[i].name == "ingest.fold" {
			if got := selfTime(ss, i); got != 20 {
				t.Errorf("fold self time %d, want 40 - 2×10 encode = 20", got)
			}
		}
	}
}

// layerMetrics reads a span file: one streamed request whose client
// root covers a server trace with admission, two decoded steps and the
// accumulated flush.
func TestLayerMetricsFromSpanFile(t *testing.T) {
	t0 := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	views := []obs.TraceView{
		{ID: "r1", Name: "client stream", Node: "client", Start: t0, WallUS: 1000},
		{ID: "r1", Name: "POST /v1/generate/stream", Node: "node0", Start: t0.Add(100 * time.Microsecond), WallUS: 850,
			Spans: []obs.SpanView{
				{Name: "admit", StartUS: 0, DurUS: 20},
				{Name: "stream.flush", StartUS: 100, DurUS: 10},
				{Name: "decode", StartUS: 150, DurUS: 300, Tags: map[string]any{"edges": 5.0}},
				{Name: "decode", StartUS: 460, DurUS: 300, Tags: map[string]any{"edges": 7.0}},
			}},
	}
	counters := map[string]float64{}
	for _, k := range []string{"durable.snapshots", "cluster.retries", "ingest.edges_per_req", "tensor.peak_live_tape_mb",
		"tensor.arena_hit_pct", "process.alloc_mb_per_op", "process.gc_pause_ms"} {
		counters[k] = 3
	}
	sf := &spanFile{Counters: counters, UntracedMS: []float64{1, 2, 3}, TracedMS: []float64{2.2}, Traces: views}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpanFile(path, sf); err != nil {
		t.Fatal(err)
	}
	back, err := readSpanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := layerMetrics(back)
	for k, want := range map[string]float64{
		"core.decode_step_ms":    0.3,
		"core.decode_first_ms":   0.35, // first decode ends at 450, pickup (first flush) at 100
		"core.edges_per_step":    6,
		"core.decode_share_pct":  60,   // 600 of 1000
		"server.wait_ms":         0.15, // trace start to the first decode
		"server.flush_ms":        0.01,
		"server.http_ms":         0.15, // 1000 - 850
		"durable.snapshots":      3,
		"obs.trace_overhead_pct": 10,
		// Unattributed: server self time after the wait, the 10 µs
		// between the decodes and 860..950.
		"obs.blocking_path_pct": 90,
	} {
		if got := m[k]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, got, want)
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			t.Errorf("per-layer metric %s not computed", d.name)
		}
	}
}

// The metric lists the program prints are the ones BENCHMARK.json
// declares, with the same units, and its workloads are the program's.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
}
