package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	ctx := context.Background()

	// No trace in ctx: Start returns nil and every method no-ops.
	sp := Start(ctx, "encode")
	if sp != nil {
		t.Fatalf("Start on traceless ctx = %v, want nil", sp)
	}
	sp.SetInt("bytes", 1).SetStr("peer", "a").SetErr(context.Canceled)
	sp.End()

	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	ctx2, tr := nilTracer.StartTrace(ctx, "req", "")
	if tr != nil || ctx2 != ctx {
		t.Fatal("nil tracer started a trace")
	}
	tr.Finish(200)
	tr.StartSpan("x").End()
	if got := nilTracer.Recent(4); got != nil {
		t.Fatalf("nil tracer Recent = %v", got)
	}
	if TraceID(ctx) != "" {
		t.Fatal("traceless ctx has an ID")
	}

	dis := Disabled()
	if _, tr := dis.StartTrace(ctx, "req", ""); tr != nil {
		t.Fatal("disabled tracer started a trace")
	}
	dis.SetEnabled(true)
	if _, tr := dis.StartTrace(ctx, "req", ""); tr == nil {
		t.Fatal("re-enabled tracer refused to trace")
	}
}

func TestTraceSpansAndViews(t *testing.T) {
	tc := New(Config{Ring: 8})
	ctx, tr := tc.StartTrace(context.Background(), "POST /v1/ingest", "")
	if tr == nil {
		t.Fatal("no trace")
	}
	if !ValidID(tr.ID) {
		t.Fatalf("minted ID %q invalid", tr.ID)
	}
	if TraceID(ctx) != tr.ID {
		t.Fatal("ctx does not carry the trace")
	}

	sp := Start(ctx, "wal.append")
	sp.SetInt("bytes", 512)
	sp.End()
	sp.End() // idempotent

	ts := tr.Timed("stream.flush", time.Now().Add(-time.Millisecond), time.Millisecond)
	ts.SetInt("lines", 3)
	ts.End()

	errSp := Start(ctx, "proxy")
	errSp.SetStr("peer", "http://b").SetErr(context.DeadlineExceeded)
	errSp.End()

	tr.Finish(200)
	tr.Finish(500) // idempotent: first status wins

	views := tc.Recent(10)
	if len(views) != 1 {
		t.Fatalf("Recent = %d traces, want 1", len(views))
	}
	v := views[0]
	if v.Status != 200 || v.Name != "POST /v1/ingest" || v.ID != tr.ID {
		t.Fatalf("bad view header: %+v", v)
	}
	if len(v.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(v.Spans))
	}
	byName := map[string]SpanView{}
	for _, s := range v.Spans {
		byName[s.Name] = s
	}
	if byName["wal.append"].Tags["bytes"] != int64(512) {
		t.Fatalf("wal.append tags = %v", byName["wal.append"].Tags)
	}
	if byName["stream.flush"].DurUS < 900 || byName["stream.flush"].DurUS > 1100 {
		t.Fatalf("Timed span dur = %dus, want ~1000", byName["stream.flush"].DurUS)
	}
	if byName["proxy"].Err == "" || byName["proxy"].Tags["peer"] != "http://b" {
		t.Fatalf("proxy span = %+v", byName["proxy"])
	}

	if got := tc.ByID(tr.ID); len(got) != 1 || got[0].ID != tr.ID {
		t.Fatalf("ByID = %+v", got)
	}
	if got := tc.ByID("nope-nope"); got != nil {
		t.Fatalf("ByID(miss) = %+v", got)
	}

	st := tc.Stats()
	if st.Started != 1 || st.Finished != 1 || !st.Enabled {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRingBoundedNewestFirst(t *testing.T) {
	tc := New(Config{Ring: 4})
	for i := 0; i < 10; i++ {
		_, tr := tc.StartTrace(context.Background(), "req", "")
		tr.StartSpan("s").End()
		tr.Finish(200 + i)
	}
	views := tc.Recent(100)
	if len(views) != 4 {
		t.Fatalf("ring kept %d traces, want 4", len(views))
	}
	for i, v := range views {
		if want := 209 - i; v.Status != want {
			t.Fatalf("views[%d].Status = %d, want %d (newest first)", i, v.Status, want)
		}
	}
}

func TestSlowestOrderingAndCap(t *testing.T) {
	tc := New(Config{Ring: 4, Slowest: 2})
	for i := 0; i < 5; i++ {
		_, tr := tc.StartTrace(context.Background(), "req", "")
		if i == 3 {
			time.Sleep(30 * time.Millisecond)
		}
		tr.Finish(200 + i)
	}
	slow := tc.Slowest(10)
	if len(slow) != 2 {
		t.Fatalf("slowest kept %d, want 2", len(slow))
	}
	if slow[0].Status != 203 {
		t.Fatalf("slowest[0].Status = %d, want the 30ms trace (203)", slow[0].Status)
	}
	if slow[0].WallUS < slow[1].WallUS {
		t.Fatal("slowest list not descending")
	}
}

func TestSamplingAndForcedIDs(t *testing.T) {
	tc := New(Config{Sample: 4})
	traced := 0
	for i := 0; i < 100; i++ {
		if _, tr := tc.StartTrace(context.Background(), "req", ""); tr != nil {
			traced++
			tr.Finish(200)
		}
	}
	if traced != 25 {
		t.Fatalf("sampled %d/100 traces, want 25", traced)
	}
	if tc.Stats().SampledOut != 75 {
		t.Fatalf("sampled_out = %d, want 75", tc.Stats().SampledOut)
	}

	// A header-supplied ID always traces, regardless of the sample gate.
	for i := 0; i < 10; i++ {
		_, tr := tc.StartTrace(context.Background(), "req", "client-chosen-id")
		if tr == nil {
			t.Fatal("forced ID was sampled out")
		}
		if tr.ID != "client-chosen-id" {
			t.Fatalf("ID = %q", tr.ID)
		}
		tr.Finish(200)
	}
	// Invalid supplied IDs are replaced rather than propagated.
	_, tr := tc.StartTrace(context.Background(), "req", "bad id with spaces")
	for tr == nil { // may be sampled out now that the ID is discarded
		_, tr = tc.StartTrace(context.Background(), "req", "bad id with spaces")
	}
	if !ValidID(tr.ID) || strings.Contains(tr.ID, " ") {
		t.Fatalf("invalid supplied ID leaked: %q", tr.ID)
	}
	tr.Finish(200)
}

func TestSpanCapDrops(t *testing.T) {
	tc := New(Config{MaxSpans: 4})
	_, tr := tc.StartTrace(context.Background(), "req", "")
	for i := 0; i < 7; i++ {
		tr.StartSpan("s").End()
	}
	tr.Finish(200)
	v := tc.Recent(1)[0]
	if len(v.Spans) != 4 || v.SpansDropped != 3 {
		t.Fatalf("spans=%d dropped=%d, want 4/3", len(v.Spans), v.SpansDropped)
	}
	if tc.Stats().SpansDropped != 3 {
		t.Fatalf("tracer dropped counter = %d", tc.Stats().SpansDropped)
	}
	// Spans arriving after Finish are dropped, not appended.
	tr.StartSpan("late").End()
	if got := len(tc.Recent(1)[0].Spans); got != 4 {
		t.Fatalf("late span appended: %d spans", got)
	}
}

func TestSlowTraceLogged(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, "json")
	tc := New(Config{SlowMS: 0.000001, Logger: logger})
	_, tr := tc.StartTrace(context.Background(), "GET /v1/forecast", "")
	tr.StartSpan("decode").End()
	tr.Finish(200)
	out := buf.String()
	if !strings.Contains(out, "slow trace") || !strings.Contains(out, tr.ID) || !strings.Contains(out, "decode") {
		t.Fatalf("slow log missing fields: %s", out)
	}
	if tc.Stats().Slow != 1 {
		t.Fatalf("slow counter = %d", tc.Stats().Slow)
	}
}

func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"abcd1234":              true,
		"client-chosen_9":       true,
		strings.Repeat("f", 64): true,
		strings.Repeat("f", 65): false,
		"short":                 false,
		"has space":             false,
		"quote\"y!":             false,
		"":                      false,
	} {
		if got := ValidID(id); got != want {
			t.Errorf("ValidID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 32 || !ValidID(id) {
			t.Fatalf("bad ID %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
}

// TestConcurrentTracer drives spans, finishes, and readers together; its
// value is under -race (the CI race leg covers this package).
func TestConcurrentTracer(t *testing.T) {
	tc := New(Config{Ring: 16, SlowMS: 1000})
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				ctx, tr := tc.StartTrace(context.Background(), "req", "")
				sp := Start(ctx, "decode")
				sp.SetInt("t", int64(i))
				sp.End()
				tr.Finish(200)
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tc.Recent(8)
			tc.Slowest(4)
			tc.ByID("never-there")
			tc.Stats()
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if tc.Stats().Finished != 800 {
		t.Fatalf("finished = %d, want 800", tc.Stats().Finished)
	}
}

func BenchmarkStartDisabledTracer(b *testing.B) {
	tc := Disabled()
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c, tr := tc.StartTrace(ctx, "req", "")
			Start(c, "decode").End()
			tr.Finish(200)
		}
	})
}

func BenchmarkSpanTracedRequest(b *testing.B) {
	tc := New(Config{})
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c, tr := tc.StartTrace(ctx, "req", "")
			Start(c, "decode").SetInt("t", 1).End()
			tr.Finish(200)
		}
	})
}

// TestFinishAtWall pins the explicit end time: the wall ends where the
// caller says (not when Finish runs), yet never before an attached span,
// and EndAt closes a span at the caller's instant.
func TestFinishAtWall(t *testing.T) {
	tc := New(Config{Ring: 8})
	_, tr := tc.StartTrace(context.Background(), "GET /x", "")
	tr.StartSpan("relay").EndAt(tr.start.Add(3 * time.Millisecond))
	tr.FinishAt(200, tr.start.Add(5*time.Millisecond))
	if v := tr.View(); v.WallUS != 5000 {
		t.Fatalf("wall = %dus, want the given end 5000us", v.WallUS)
	}
	if sp := tr.spans[0]; sp.start+sp.dur != 3*time.Millisecond {
		t.Fatalf("relay span ends at %v, want 3ms", sp.start+sp.dur)
	}

	_, tr = tc.StartTrace(context.Background(), "GET /y", "")
	tr.StartSpan("relay").EndAt(tr.start.Add(3 * time.Millisecond))
	tr.FinishAt(200, tr.start.Add(time.Millisecond))
	if v := tr.View(); v.WallUS != 3000 {
		t.Fatalf("wall = %dus, want it stretched to the span end 3000us", v.WallUS)
	}
}
