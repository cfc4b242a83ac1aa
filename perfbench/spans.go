package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"vrdag/internal/obs"
)

// spanFile is what a traced run leaves behind: the stamp, the counters
// that do not come from spans, the latencies of the run's untraced and
// traced operations (their medians give the tracing overhead), and every
// trace — the benchmark's own client-side traces (node "client") and the
// traces each server recorded (node "node0", ...). Spans of one request
// share the trace ID across all of them.
type spanFile struct {
	Stamp      stamp              `json:"stamp"`
	Counters   map[string]float64 `json:"counters"`
	UntracedMS []float64          `json:"untraced_ms"`
	TracedMS   []float64          `json:"traced_ms"`
	Traces     []obs.TraceView    `json:"-"`
}

// The file holds one JSON object per line: {"meta": spanFile} first, then
// one obs.TraceView per trace.
func writeSpanFile(path string, sf *spanFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]*spanFile{"meta": sf})
	for i := 0; err == nil && i < len(sf.Traces); i++ {
		err = enc.Encode(&sf.Traces[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing span file %s: %w", path, err)
	}
	return nil
}

func readSpanFile(path string) (*spanFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	var head struct{ Meta *spanFile }
	if err := dec.Decode(&head); err != nil || head.Meta == nil {
		return nil, fmt.Errorf("span file %s: missing meta line: %v", path, err)
	}
	sf := head.Meta
	for dec.More() {
		var tv obs.TraceView
		if err := dec.Decode(&tv); err != nil {
			return nil, fmt.Errorf("span file %s: %w", path, err)
		}
		sf.Traces = append(sf.Traces, tv)
	}
	return sf, nil
}

// clientTracer records the benchmark's own spans. It keeps every trace a
// run makes: the ring is larger than any run's request count and the span
// cap larger than any request's span count, so nothing is dropped.
func clientTracer() *obs.Tracer {
	return obs.New(obs.Config{Ring: 1 << 16, MaxSpans: 1 << 12, Slowest: -1})
}

// collect returns every completed trace a tracer retained, stamped with
// the node that recorded it.
func collect(t *obs.Tracer, node string) []obs.TraceView {
	views := t.Recent(1 << 16)
	for i := range views {
		views[i].Node = node
	}
	return views
}

// span is one interval of a request on the common clock: a trace's root
// (its whole wall time on one node) or one of its spans. Times are
// microseconds.
type span struct {
	name       string
	node       string
	root       bool
	start, end int64
	tags       map[string]any
	parent     int // index into the request's spans; -1 for the outermost
}

func (s *span) dur() int64 { return s.end - s.start }

func (s *span) intTag(k string) (int64, bool) {
	switch v := s.tags[k].(type) {
	case float64: // read back from JSON
		return int64(v), true
	case int64:
		return v, true
	}
	return 0, false
}

// requestSpans flattens the traces sharing one ID onto one clock.
func requestSpans(views []obs.TraceView) []span {
	var out []span
	for _, tv := range views {
		base := tv.Start.UnixMicro()
		out = append(out, span{name: tv.Name, node: tv.Node, root: true, start: base, end: base + tv.WallUS})
		for _, sv := range tv.Spans {
			s := base + sv.StartUS
			out = append(out, span{name: sv.Name, node: tv.Node, start: s, end: s + sv.DurUS, tags: sv.Tags})
		}
	}
	return out
}

// buildTree orders spans by start (outer first on ties) and makes each
// span's parent the innermost earlier span that contains it. Spans carry
// no parent IDs, so containment on the shared clock is the causal
// structure: a proxy hop contains the peer's whole trace, a fold contains
// its encodes. Spans that only overlap are siblings. A trace root needs
// only its start inside the parent: a node closes its trace after the
// response is written, so it may end after the hop that carried it, and
// self time clips the overhang.
func buildTree(ss []span) {
	sort.SliceStable(ss, func(i, j int) bool {
		a, b := &ss[i], &ss[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end > b.end
		}
		if a.root != b.root {
			return a.root
		}
		return a.node == "client" && b.node != "client"
	})
	var stack []int // spans still open at the current start
	for i := range ss {
		c := &ss[i]
		for len(stack) > 0 && ss[stack[len(stack)-1]].end <= c.start {
			stack = stack[:len(stack)-1]
		}
		c.parent = -1
		for k := len(stack) - 1; k >= 0; k-- {
			if p := &ss[stack[k]]; p.end > c.start && (c.end <= p.end || c.root) {
				c.parent = stack[k]
				break
			}
		}
		stack = append(stack, i)
	}
}

type interval struct{ lo, hi int64 }

// union merges intervals and returns them sorted and disjoint.
func union(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var out []interval
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, x.hi)
			continue
		}
		out = append(out, x)
	}
	return out
}

// selfIntervals is the part of span p that none of its children cover:
// p's interval minus the union of its children's intervals clipped to p.
// Overlapping children are counted once.
func selfIntervals(ss []span, p int) []interval {
	var kids []interval
	for i := range ss {
		if ss[i].parent == p {
			kids = append(kids, interval{max(ss[i].start, ss[p].start), min(ss[i].end, ss[p].end)})
		}
	}
	var out []interval
	at := ss[p].start
	for _, k := range union(kids) {
		if k.lo > at {
			out = append(out, interval{at, k.lo})
		}
		at = max(at, k.hi)
	}
	if at < ss[p].end {
		out = append(out, interval{at, ss[p].end})
	}
	return out
}

func selfTime(ss []span, p int) int64 {
	var t int64
	for _, iv := range selfIntervals(ss, p) {
		t += iv.hi - iv.lo
	}
	return t
}

// workSpans are the spans in which the program does a request's work;
// everything on a server before the first of them is waiting (admission,
// the worker-pool queue, spooling the body).
var workSpans = map[string]bool{"decode": true, "encode": true, "wal.append": true, "ingest.fold": true}

// firstWork returns the earliest work span that is a descendant of root
// without crossing into another trace root, or -1.
func firstWork(ss []span, root int) int {
	best := -1
	for i := range ss {
		if !workSpans[ss[i].name] || ownerRoot(ss, i) != root {
			continue
		}
		if best < 0 || ss[i].start < ss[best].start {
			best = i
		}
	}
	return best
}

// ownerRoot is the trace root a span was recorded under.
func ownerRoot(ss []span, i int) int {
	for i >= 0 && !ss[i].root {
		i = ss[i].parent
	}
	return i
}

// underReplicate reports whether span i sits inside a replicate hop: the
// follower's half of a replicated ingest.
func underReplicate(ss []span, i int) bool {
	for p := ss[i].parent; p >= 0; p = ss[p].parent {
		if ss[p].name == "replicate" {
			return true
		}
	}
	return false
}

func ms(us int64) float64 { return float64(us) / 1000 }

// layerMetrics computes the per-layer table from a span file.
func layerMetrics(sf *spanFile) map[string]float64 {
	groups := map[string][]obs.TraceView{}
	for _, tv := range sf.Traces {
		groups[tv.ID] = append(groups[tv.ID], tv)
	}
	var (
		steps, firsts, stepEdges, decodes, decodeEdges, encodes, fcDecode []float64
		waits, flushes, https, foldSelf, wal, proxy, replicate, coverage  []float64
		decodeUS, requestUS                                               int64
		requests, proxied                                                 int
	)
	for _, views := range groups {
		ss := requestSpans(views)
		buildTree(ss)
		client := -1
		for i := range ss {
			if ss[i].root && ss[i].node == "client" {
				client = i
			}
		}
		if client < 0 || ss[client].name == "client fit" {
			continue // a server-side trace with no request of ours, or training
		}
		requests++
		requestUS += ss[client].dur()
		var fcSum int64
		hasProxy := false
		for i := range ss {
			s := &ss[i]
			switch s.name {
			case "gen.step":
				steps = append(steps, ms(s.dur()))
				if e, ok := s.intTag("edges"); ok {
					stepEdges = append(stepEdges, float64(e))
				}
				if t, _ := s.intTag("t"); t == 0 {
					firsts = append(firsts, ms(s.dur()))
				}
			case "decode":
				decodeUS += s.dur()
				decodes = append(decodes, ms(s.dur()))
				if e, ok := s.intTag("edges"); ok {
					decodeEdges = append(decodeEdges, float64(e))
				}
				if ss[client].name == "client forecast" {
					fcSum += s.dur()
				}
			case "encode":
				encodes = append(encodes, ms(s.dur()))
			case "stream.flush":
				flushes = append(flushes, ms(s.dur()))
			case "ingest.fold":
				foldSelf = append(foldSelf, ms(selfTime(ss, i)))
			case "wal.append":
				wal = append(wal, ms(s.dur()))
			case "proxy":
				hasProxy = true
				proxy = append(proxy, ms(selfTime(ss, i)))
			case "replicate":
				replicate = append(replicate, ms(selfTime(ss, i)))
			}
		}
		if ss[client].name == "client forecast" {
			fcDecode = append(fcDecode, ms(fcSum))
		}
		if hasProxy {
			proxied++
		}

		// Per node trace: the wait before its first work span, the first
		// decoded step, and the HTTP time around the entry node.
		unattributed := int64(0)
		entry := -1
		for r := range ss {
			if !ss[r].root || r == client {
				continue
			}
			if ss[r].parent == client && entry < 0 {
				entry = r
			}
			wait := interval{ss[r].start, ss[r].start}
			if w := firstWork(ss, r); w >= 0 {
				wait.hi = ss[w].start
				if !underReplicate(ss, r) {
					waits = append(waits, ms(wait.hi-wait.lo))
				}
			}
			for _, iv := range selfIntervals(ss, r) {
				lo, hi := max(iv.lo, wait.hi), iv.hi
				if hi > lo {
					unattributed += hi - lo
				}
			}
			if f := firstDecodeAfterPickup(ss, r); f >= 0 {
				firsts = append(firsts, ms(f))
			}
		}
		if entry >= 0 {
			https = append(https, ms(ss[client].dur()-ss[entry].dur()))
		}
		if d := ss[client].dur(); d > 0 {
			coverage = append(coverage, 100*float64(d-unattributed)/float64(d))
		}
	}

	m := map[string]float64{
		"core.decode_step_ms":       p50(steps),
		"core.decode_first_ms":      p50(firsts),
		"core.edges_per_step":       mean(stepEdges),
		"core.encode_ms":            p50(encodes),
		"core.forecast_decode_ms":   p50(fcDecode),
		"server.wait_ms":            p50(waits),
		"server.flush_ms":           p50(flushes),
		"server.http_ms":            p50(https),
		"ingest.fold_self_ms":       p50(foldSelf),
		"durable.wal_append_ms":     p50(wal),
		"durable.wal_append_p95_ms": pctOr0(wal, 0.95),
		"cluster.proxy_ms":          p50(proxy),
		"cluster.replicate_ms":      p50(replicate),
		"obs.blocking_path_pct":     p50(coverage),
		"core.decode_share_pct":     0,
		"cluster.proxied_pct":       0,
		"obs.trace_overhead_pct":    0,
	}
	if len(steps) == 0 { // a server workload: its decode steps are the program's spans
		m["core.decode_step_ms"] = p50(decodes)
		m["core.edges_per_step"] = mean(decodeEdges)
	}
	if requestUS > 0 {
		m["core.decode_share_pct"] = 100 * float64(decodeUS) / float64(requestUS)
	}
	if requests > 0 {
		m["cluster.proxied_pct"] = 100 * float64(proxied) / float64(requests)
	}
	if u, t := p50(sf.UntracedMS), p50(sf.TracedMS); u > 0 {
		m["obs.trace_overhead_pct"] = 100 * (t/u - 1)
	}
	for k, v := range sf.Counters {
		m[k] = v
	}
	return m
}

// firstDecodeAfterPickup is the time from a worker picking the request
// up to the end of its first decoded step, which covers the per-request
// generation-state set-up: pickup is the start of the stream's first
// flush (the NDJSON header is written as the worker starts) or, for a
// unary request, the end of admission. -1 when the trace decodes nothing.
func firstDecodeAfterPickup(ss []span, root int) int64 {
	first, pickup := -1, int64(-1)
	for i := range ss {
		if ownerRoot(ss, i) != root {
			continue
		}
		switch ss[i].name {
		case "decode":
			if first < 0 || ss[i].start < ss[first].start {
				first = i
			}
		case "stream.flush":
			pickup = ss[i].start
		case "admit":
			if pickup < 0 {
				pickup = ss[i].end
			}
		}
	}
	if first < 0 || pickup < 0 {
		return -1
	}
	return ss[first].end - pickup
}

// p50 and pctOr0 read 0 for a layer the workload does not exercise.
func p50(xs []float64) float64 { return pctOr0(xs, 0.5) }

func pctOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, q)
}
