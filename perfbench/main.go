// Command perfbench is vrdag's end-to-end benchmark. Each run executes one
// workload for a given seed, checks the program's outputs, and prints one
// JSON result line with the end-to-end metrics (or, with --trace 1, the
// per-layer metrics computed from the span file the traced run writes).
// See README.md beside this file for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metricDef names a metric and its unit. The lists below are the ones
// BENCHMARK.json declares (a test keeps the two equal): every run prints
// every metric of its list.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"fit_epoch_ms", "ms"},
	{"gen_edges_per_s", "1/s"},
	{"gen_indeg_mmd", "score"},
	{"gen_attr_jsd", "score"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
}

var perLayer = []metricDef{
	{"core.decode_step_ms", "ms"},
	{"core.decode_first_ms", "ms"},
	{"core.edges_per_step", "count"},
	{"core.decode_share_pct", "%"},
	{"core.encode_ms", "ms"},
	{"core.forecast_decode_ms", "ms"},
	{"server.wait_ms", "ms"},
	{"server.flush_ms", "ms"},
	{"server.http_ms", "ms"},
	{"ingest.fold_self_ms", "ms"},
	{"ingest.edges_per_req", "count"},
	{"durable.wal_append_ms", "ms"},
	{"durable.wal_append_p95_ms", "ms"},
	{"durable.snapshots", "count"},
	{"cluster.proxy_ms", "ms"},
	{"cluster.proxied_pct", "%"},
	{"cluster.replicate_ms", "ms"},
	{"cluster.retries", "count"},
	{"tensor.peak_live_tape_mb", "MB"},
	{"tensor.arena_hit_pct", "%"},
	{"process.alloc_mb_per_op", "MB"},
	{"process.gc_pause_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.blocking_path_pct", "%"},
}

// outcome is what a workload hands back: op counts, failed output
// checks, the end-to-end values, and — on a traced run — the traces and
// counters the per-layer table is computed from.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks and validity limits
	e2e               map[string]float64
	detail            map[string]any
	spans             spanFile
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(options) (*outcome, error){
	"offline":         runOffline,
	"serve-stream":    runServeStream,
	"ingest-forecast": runIngestForecast,
}

// spanDir is where traced runs leave their span files, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/spans"

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: offline, serve-stream or ingest-forecast")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input of the run is derived from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed phase in seconds (a floor: a run also completes its minimum sample counts)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", sortedKeys(workloads))
		os.Exit(2)
	}
	o.trace = trace == 1

	st := newStamp(o)
	emit(map[string]any{"stamp": st})
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}

	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, values := endToEnd, out.e2e
	if o.trace {
		out.spans.Stamp = st
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpanFile(path, &out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		sf, err := readSpanFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		defs, values = perLayer, layerMetrics(sf)
		out.detail["span_file"] = path
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", o.workload, d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(out.problems) > 0 {
		out.detail["problems"] = out.problems
	}
	emit(map[string]any{"detail": out.detail})
	emit(res)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding output: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(b, '\n'))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quietLogger discards the servers' request logs: a log line per request
// would be measured as part of every request.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// mix derives independent 63-bit seeds from the run seed and a path of
// indices (splitmix64 finaliser), so each request, sequence and schedule
// of a run has its own stream and adding one does not shift the others.
func mix(seed int64, path ...int64) int64 {
	z := uint64(seed)
	for _, p := range path {
		z += 0x9e3779b97f4a7c15 ^ uint64(p)*0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}
