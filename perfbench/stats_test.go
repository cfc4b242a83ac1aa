package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSupportedTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := percentile(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (ten samples beyond)", got)
	}
	if got := percentile(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %g, want 100", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	var s samples
	for range 90 {
		s.ok(5)
	}
	for range 10 {
		s.fail()
	}
	if n := failures(s); n != 10 {
		t.Fatalf("%d failures recorded, want 10", n)
	}
	if got := s.pct(0.5); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := s.pct(0.95); got != failedMS {
		t.Errorf("p95 = %g, want %g: with 10%% failed the p95 falls on a failure", got, failedMS)
	}
}

// A shed request (429 from admission, 503 from a draining or overloaded
// server) is a failed op that misses the latency limit, not a wrong output.
func TestRefusedRequestCountsAsFailedAndMissesLimit(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", code)
		}))
		r := doStream(ts.Client(), ts.URL, 1, time.Now(), nil, false)
		ts.Close()
		var lat, ttfs samples
		if account(r, &lat, &ttfs) {
			t.Fatalf("status %d accounted as a success", code)
		}
		if !refused(r.err) {
			t.Errorf("status %d: error %q not recognised as a refusal", code, r.err)
		}
		if failures(lat) != 1 || failures(ttfs) != 1 {
			t.Errorf("status %d: failures recorded %d/%d, want 1/1", code, failures(lat), failures(ttfs))
		}
		if lat.pct(0.5) != failedMS || ttfs.pct(0.95) != failedMS {
			t.Errorf("status %d: a refused request must miss every latency limit", code)
		}
	}
}

func failures(s samples) int {
	n := 0
	for _, x := range s.v {
		if math.IsInf(x, 1) {
			n++
		}
	}
	return n
}
