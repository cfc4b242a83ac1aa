package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vrdag/internal/cluster"
	"vrdag/internal/core"
	"vrdag/internal/dyngraph"
	"vrdag/internal/ingest"
	"vrdag/internal/metrics"
	"vrdag/internal/obs"
	"vrdag/internal/server"
)

// The ingest-forecast workload runs an in-process three-node cluster, each
// node a durable server with its own data directory, two copies per
// session acknowledged after replication. Two closed-loop clients each own
// a few sessions and enter through a fixed node, so some requests take a
// proxy hop. An op ingests the next window of the small Email replica's
// edge stream as CSV (real degree skew) or, every fourth op, forecasts
// four steps from that session; a session that reaches the end of the
// replica is deleted and started again. Writes dominate: CSV parsing,
// EncodeSnapshot, WAL fsync and compaction, proxy and replication. The
// decoder does little, so this is the workload a decoder change must not
// move on its ingest latencies.
const (
	clusterNodes      = 3
	ingestClients     = 2
	sessionsPerClient = 3
	forecastEvery     = 4
	forecastT         = 4
	// The first forecasts of each client are recomputed in the
	// benchmark's own process and must match byte for byte; they also
	// give the fidelity scores against the replica's continuation.
	verifiedPerClient = 32
)

// swapHandler lets the listeners exist, so that every node's URL is known,
// before the cluster nodes that serve them are built.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type member struct {
	srv    *server.Server
	node   *cluster.Node
	ts     *httptest.Server
	tracer *obs.Tracer
}

// startCluster starts the nodes, each with its own data directory under
// dir. stop shuts them down; it is safe on a partly started cluster.
func startCluster(m *core.Model, g *dyngraph.Sequence, dir string, trace bool) (members []*member, stop func(), err error) {
	members = make([]*member, clusterNodes)
	handlers := make([]*swapHandler, clusterNodes)
	urls := make([]string, clusterNodes)
	for i := range members {
		handlers[i] = &swapHandler{}
		members[i] = &member{ts: httptest.NewServer(handlers[i]), tracer: serverTracer(trace)}
		urls[i] = members[i].ts.URL
	}
	stop = func() {
		for _, mb := range members {
			mb.ts.Close()
			if mb.node != nil {
				mb.node.Close()
			}
			if mb.srv != nil {
				mb.srv.Close()
			}
		}
	}
	for i, mb := range members {
		mb.srv = server.New(server.Config{
			DataDir: filepath.Join(dir, fmt.Sprintf("node%d", i)),
			Logger:  quietLogger(),
			Tracer:  mb.tracer,
		})
		if err = mb.srv.Register(modelName, m, g); err != nil {
			stop()
			return nil, nil, err
		}
		if mb.node, err = cluster.NewNode(mb.srv, cluster.Config{Self: urls[i], Peers: urls, Logger: quietLogger()}); err != nil {
			stop()
			return nil, nil, err
		}
		handlers[i].set(mb.node)
	}
	return members, stop, nil
}

// windowCSV renders snapshot t of the replica as one ingest body: every
// edge at timestamp t, carrying its source node's attributes.
func windowCSV(g *dyngraph.Sequence, t int) ([]byte, int) {
	var b bytes.Buffer
	b.WriteString("src,dst,t")
	for j := 0; j < g.F; j++ {
		fmt.Fprintf(&b, ",x%d", j+1)
	}
	b.WriteByte('\n')
	s := g.At(t)
	edges := s.Edges()
	for _, e := range edges {
		fmt.Fprintf(&b, "n%d,n%d,%d", e[0], e[1], t)
		if s.X != nil {
			for _, x := range s.X.Row(e[0]) {
				b.WriteByte(',')
				b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
			}
		}
		b.WriteByte('\n')
	}
	return b.Bytes(), len(edges)
}

// forecastCheck is a forecast to recompute locally: the windows the
// session had absorbed, the seed, and the sequence the cluster returned.
type forecastCheck struct {
	history []int
	seed    int64
	got     json.RawMessage
}

type clientStats struct {
	ops, failed           int
	problems              []string
	ing, fc               samples
	tracedMS, untracedMS  []float64
	fcEdges               int
	fcDur                 time.Duration
	ingestEdges, ingested int
	checks                []forecastCheck
}

func runIngestForecast(o options) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, detail: map[string]any{}}
	dataRoot := filepath.Join(".bench_build", "tmp", fmt.Sprintf("ingest-forecast-%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)
	var (
		g       *dyngraph.Sequence
		m       *core.Model
		members []*member
		stop    func()
		setups  []float64
		epochMS []float64
		windows [][]byte
		wEdges  []int
	)
	stopCluster := func() {
		if stop != nil {
			stop()
			stop = nil
		}
	}
	defer stopCluster()
	for r := range setupRepeats {
		stopCluster()
		t0 := time.Now()
		var ep []float64
		var err error
		if g, m, ep, err = trainSmall(); err != nil {
			return nil, err
		}
		epochMS = append(epochMS, ep...)
		windows, wEdges = windows[:0], wEdges[:0]
		for t := range g.T() {
			b, n := windowCSV(g, t)
			windows, wEdges = append(windows, b), append(wEdges, n)
		}
		if members, stop, err = startCluster(m, g, filepath.Join(dataRoot, fmt.Sprint(r)), o.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var ct *obs.Tracer
	if o.trace {
		ct = clientTracer()
	}
	var ingests, forecasts atomic.Int64
	stats := make([]*clientStats, ingestClients)
	runtime.GC()
	resetPeakRSS()
	before := readProcCounters()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	done := func() bool {
		return time.Now().After(deadline) && ingests.Load() >= minTailSamples && forecasts.Load() >= minTailSamples
	}
	urls := make([]string, len(members))
	for i, mb := range members {
		urls[i] = mb.ts.URL
	}
	var wg sync.WaitGroup
	for c := range ingestClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entry := urls[c%clusterNodes]
			stats[c] = runIngestClient(o, c, entry, sessionNames(urls, c, entry), windows, wEdges, ct, &ingests, &forecasts, done)
		}()
	}
	wg.Wait()
	phase := time.Since(start)
	peak := peakRSSMB()
	used := readProcCounters().sub(before)

	var all clientStats
	for _, s := range stats {
		out.attempted += s.ops
		out.failed += s.failed
		for _, p := range s.problems {
			out.problem("%s", p)
		}
		all.ing.v = append(all.ing.v, s.ing.v...)
		all.fc.v = append(all.fc.v, s.fc.v...)
		all.tracedMS = append(all.tracedMS, s.tracedMS...)
		all.untracedMS = append(all.untracedMS, s.untracedMS...)
		all.fcEdges += s.fcEdges
		all.fcDur += s.fcDur
		all.ingestEdges += s.ingestEdges
		all.ingested += s.ingested
		all.checks = append(all.checks, s.checks...)
	}

	// Recompute the sampled forecasts locally: fold the same CSV bytes
	// through ingest.Stream and EncodeSnapshot, forecast with the same
	// seed, and compare the encoded sequences byte for byte. Score the
	// ones with a continuation in the replica against it.
	var mmds, jsds []float64
	for i, chk := range all.checks {
		out.attempted++
		want, err := localForecast(m, windows, chk.history, chk.seed)
		if err != nil || !bytes.Equal(want, chk.got) {
			out.failed++
			out.problem("forecast check %d: cluster and local forecasts differ (err %v)", i, err)
			continue
		}
		next := chk.history[len(chk.history)-1] + 1
		if next >= g.T() {
			continue
		}
		var fc dyngraph.Sequence
		if err := json.Unmarshal(chk.got, &fc); err != nil {
			out.problem("forecast check %d: %v", i, err)
			continue
		}
		ref := &dyngraph.Sequence{N: g.N, F: g.F, Snapshots: g.Snapshots[next:min(next+forecastT, g.T())]}
		mmds = append(mmds, inDegMMD(ref, &fc))
		jsds = append(jsds, metrics.AttrJSD(ref, &fc, jsdBins))
	}
	if q := supportedTail(min(all.ing.n(), all.fc.n())); q < 0.95 {
		out.problem("%d ingests and %d forecasts support only p%g, not p95", all.ing.n(), all.fc.n(), 100*q)
	}

	// p50 is the median ingest, the write path this workload is about.
	// p95 is over every request of the mix: one in four is a forecast ten
	// times slower than an ingest, so the tail is the forecasts'. The
	// mix's own median would fall on the ingests' 67th percentile, where
	// their latency curve turns steep and moves by a fifth between runs;
	// the ingests' own p95 is set by how often they wait behind a
	// forecast for the CPU, and moves as much.
	mixed := samples{v: append(append([]float64(nil), all.ing.v...), all.fc.v...)}
	out.e2e = map[string]float64{
		"setup_s":         median(setups),
		"peak_rss_mb":     peak,
		"fit_epoch_ms":    median(epochMS),
		"gen_edges_per_s": float64(all.fcEdges) / all.fcDur.Seconds(),
		"gen_indeg_mmd":   mean(mmds),
		"gen_attr_jsd":    mean(jsds),
		"p50_ms":          all.ing.pct(0.5),
		"p95_ms":          mixed.pct(0.95),
	}
	var retries int64
	for _, mb := range members {
		retries += mb.node.Stats().ProxyRetries
	}
	out.detail = map[string]any{
		"phase_s":          phase.Seconds(),
		"setup_runs_s":     setups,
		"ingests":          all.ing.n(),
		"forecasts":        all.fc.n(),
		"ingest_p50_ms":    all.ing.pct(0.5),
		"ingest_p95_ms":    all.ing.pct(0.95),
		"forecast_p50_ms":  all.fc.pct(0.5),
		"forecast_p95_ms":  all.fc.pct(0.95),
		"verified":         len(all.checks),
		"fidelity_samples": len(mmds),
		"proxy_retries":    retries,
		"latency_op":       "p50: ingest request; p95: every request of the mix; send to response",
	}
	if o.trace {
		snaps, err := compactions(members)
		if err != nil {
			return nil, err
		}
		counters := used.layerCounters(m, mixed.n())
		counters["durable.snapshots"] = float64(snaps)
		counters["cluster.retries"] = float64(retries)
		counters["ingest.edges_per_req"] = float64(all.ingestEdges) / float64(max(all.ingested, 1))
		sf := spanFile{
			Counters:   counters,
			UntracedMS: all.untracedMS,
			TracedMS:   all.tracedMS,
			Traces:     collect(ct, "client"),
		}
		for i, mb := range members {
			sf.Traces = append(sf.Traces, collect(mb.tracer, fmt.Sprintf("node%d", i))...)
		}
		out.spans = sf
	}
	return out, nil
}

// runIngestClient is one closed-loop client: it sends its next op when
// the previous one has answered, until done reports the run complete.
func runIngestClient(o options, c int, entry string, names []string, windows [][]byte, wEdges []int, ct *obs.Tracer,
	ingests, forecasts *atomic.Int64, done func() bool) *clientStats {
	st := &clientStats{}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	nWin := len(windows)
	cursor := make([]int, sessionsPerClient)    // next window to ingest
	history := make([][]int, sessionsPerClient) // windows the session absorbed
	dirty := make([]bool, sessionsPerClient)    // a failed ingest left its state unknown
	for j := range names {
		cursor[j] = int(mix(o.seed, 4, int64(c), int64(j)) % int64(nWin/2))
	}
	// fail counts a failed op; unless the server shed it under load (429
	// or 503), it is also a wrong output.
	fail := func(status int, format string, args ...any) {
		st.failed++
		if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable && len(st.problems) < 10 {
			st.problems = append(st.problems, fmt.Sprintf(format, args...))
		}
	}
	for k := 0; !done(); k++ {
		j := k % sessionsPerClient
		isForecast := k%forecastEvery == forecastEvery-1
		if !isForecast && cursor[j] == nWin {
			// End of the replica: delete the session and start it again.
			st.ops++
			status, _, err := del(client, entry+"/v1/ingest?session="+names[j])
			if err != nil || status != http.StatusOK {
				fail(status, "delete %s: status %d %v", names[j], status, err)
			}
			cursor[j], history[j], dirty[j] = 0, nil, false
		}
		name := "client ingest"
		if isForecast {
			name = "client forecast"
		}
		var tr *obs.Trace
		ctx := context.Background()
		if (k/forecastEvery)%2 == 0 {
			ctx, tr = ct.StartTrace(ctx, name, "")
		}
		if isForecast {
			seed := mix(o.seed, 5, int64(c), int64(k))
			body := fmt.Sprintf(`{"session":%q,"t":%d,"seed":%d}`, names[j], forecastT, seed)
			t0 := time.Now()
			status, resp, err := post(ctx, client, entry+"/v1/forecast", "application/json", []byte(body), tr)
			d := time.Since(t0)
			tr.Finish(status)
			st.ops++
			var fr struct {
				Steps    int             `json:"steps"`
				Sequence json.RawMessage `json:"sequence"`
			}
			var seq dyngraph.Sequence
			switch {
			case err != nil || status != http.StatusOK:
				fail(status, "forecast %s: status %d %v", names[j], status, err)
			case json.Unmarshal(resp, &fr) != nil || json.Unmarshal(fr.Sequence, &seq) != nil || seq.T() != forecastT:
				fail(0, "forecast %s: bad body", names[j])
			case !dirty[j] && fr.Steps != len(history[j]):
				fail(0, "forecast %s: conditioned on %d steps, %d were ingested", names[j], fr.Steps, len(history[j]))
			default:
				st.fc.ok(ms64(d))
				traced(st, tr, d)
				st.fcEdges += seq.TotalTemporalEdges()
				st.fcDur += d
				forecasts.Add(1)
				if !dirty[j] && len(st.checks) < verifiedPerClient {
					st.checks = append(st.checks, forecastCheck{history: append([]int(nil), history[j]...), seed: seed, got: fr.Sequence})
				}
				continue
			}
			st.fc.fail()
			continue
		}

		w := cursor[j]
		t0 := time.Now()
		status, resp, err := post(ctx, client, entry+"/v1/ingest?session="+names[j]+"&model="+modelName, "text/csv", windows[w], tr)
		d := time.Since(t0)
		tr.Finish(status)
		st.ops++
		var ir server.IngestResponse
		switch {
		case err != nil || status != http.StatusOK:
			fail(status, "ingest %s window %d: status %d %v", names[j], w, status, err)
		case json.Unmarshal(resp, &ir) != nil || ir.Absorbed != 1 || (!dirty[j] && ir.Steps != len(history[j])+1):
			fail(0, "ingest %s window %d: unexpected response %s", names[j], w, resp)
		default:
			st.ing.ok(ms64(d))
			traced(st, tr, d)
			st.ingestEdges += wEdges[w]
			st.ingested++
			ingests.Add(1)
			history[j] = append(history[j], w)
			cursor[j]++
			continue
		}
		st.ing.fail()
		cursor[j], dirty[j] = nWin, true
	}
	return st
}

// sessionNames picks client c's session names so that its first session's
// primary is its entry node and the others' primaries are not: two thirds
// of its requests take a proxy hop, the share a uniformly placed session
// has on three nodes. Placement hashes the nodes' URLs, whose ports change
// from run to run, so fixed names would give every run another share.
func sessionNames(urls []string, c int, entry string) []string {
	ring := cluster.NewRing(urls)
	names := make([]string, sessionsPerClient)
	for j := range names {
		for i := 0; ; i++ {
			name := fmt.Sprintf("c%d-s%d-%d", c, j, i)
			if local := ring.Owners(name, 1, nil)[0] == entry; local == (j == 0) {
				names[j] = name
				break
			}
		}
	}
	return names
}

// traced files a request's latency with the traced or the untraced half
// of the run, whose medians give the tracing overhead.
func traced(st *clientStats, tr *obs.Trace, d time.Duration) {
	if tr != nil {
		st.tracedMS = append(st.tracedMS, ms64(d))
	} else {
		st.untracedMS = append(st.untracedMS, ms64(d))
	}
}

func post(ctx context.Context, client *http.Client, url, ctype string, body []byte, tr *obs.Trace) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ctype)
	if tr != nil {
		req.Header.Set(obs.Header, tr.ID)
	}
	return do(client, req)
}

func del(client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(client, req)
}

func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// localForecast folds the given windows into a fresh forecast state the
// way a session does (window 1, attributes carried, each request's final
// window sealed) and forecasts from it, returning the encoded sequence.
func localForecast(m *core.Model, windows [][]byte, history []int, seed int64) ([]byte, error) {
	stream, err := ingest.NewStream(ingest.Options{N: m.Cfg.N, F: m.Cfg.F, Window: 1, CarryAttrs: true, Pooled: true})
	if err != nil {
		return nil, err
	}
	state := m.NewForecastState()
	defer state.Release()
	emit := func(s *dyngraph.Snapshot) error {
		err := m.EncodeSnapshot(state, s)
		s.Recycle()
		return err
	}
	for _, w := range history {
		if err := stream.Fold(bytes.NewReader(windows[w]), emit); err != nil {
			return nil, err
		}
		if err := stream.Flush(emit); err != nil {
			return nil, err
		}
	}
	seq, err := m.Forecast(context.Background(), state, core.GenOptions{T: forecastT, Source: rand.NewSource(seed), Parallel: true})
	if err != nil {
		return nil, err
	}
	return json.Marshal(seq)
}

// compactions sums the WAL compactions every node reports on /v1/metrics.
func compactions(members []*member) (int64, error) {
	var n int64
	for _, mb := range members {
		resp, err := http.Get(mb.ts.URL + "/v1/metrics?model=" + modelName + "&t=1")
		if err != nil {
			return 0, err
		}
		var mr server.MetricsResponse
		err = json.NewDecoder(resp.Body).Decode(&mr)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("reading /v1/metrics: %w", err)
		}
		if mr.Server != nil && mr.Server.Durability != nil {
			n += mr.Server.Durability.Snapshots
		}
	}
	return n, nil
}
