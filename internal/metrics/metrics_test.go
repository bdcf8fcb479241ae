package metrics

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRenderExposition pins the text exposition format: a HELP and a
// TYPE line per family, then its samples, families in registration
// order (not name order).
func TestRenderExposition(t *testing.T) {
	reg := NewRegistry()
	var hits atomic.Int64
	hits.Add(3)
	reg.AddScalar("zeta_total", "counter", "Zeta events.", Counter(&hits))
	reg.AddFamily("alpha", "gauge", "Alpha level.", func() []Sample {
		return []Sample{{Labels: LabelSet("pool", "a"), Value: 0.5}, {Labels: LabelSet("pool", "b"), Value: 2}}
	})
	want := `# HELP zeta_total Zeta events.
# TYPE zeta_total counter
zeta_total 3
# HELP alpha Alpha level.
# TYPE alpha gauge
alpha{pool="a"} 0.5
alpha{pool="b"} 2
`
	if got := string(reg.Render()); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}

	// Collect hooks run at scrape time, so the next render sees new values.
	hits.Add(1)
	if got := string(reg.Render()); !strings.Contains(got, "zeta_total 4\n") {
		t.Fatalf("counter not read at scrape time:\n%s", got)
	}
}

func TestAddLabeledSortsSeries(t *testing.T) {
	reg := NewRegistry()
	reg.AddLabeled("state", "gauge", "State by name.", map[string]func() float64{
		"open":      func() float64 { return 1 },
		"closed":    func() float64 { return 2 },
		"half-open": func() float64 { return 3 },
	}, "state")
	got := string(reg.Render())
	want := `state{state="closed"} 2
state{state="half-open"} 3
state{state="open"} 1
`
	if !strings.HasSuffix(got, want) {
		t.Fatalf("labeled series not in sorted order:\n%s", got)
	}
}

// TestLatencyHistogram checks the histogram rendering: per-bucket counts
// are cumulated, the +Inf bucket equals _count (including observations
// past the last bound), and _sum adds the raw latencies.
func TestLatencyHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.AddFamily("latency_seconds", "histogram", "Latency.", reg.CollectLatency)
	st := reg.endpoint("/x")
	for _, s := range []float64{0.0003, 0.003, 0.003, 20} {
		reg.observe(st, http.StatusOK, s)
	}
	got := string(reg.Render())
	for _, line := range []string{
		`latency_seconds_bucket{endpoint="/x",le="0.0005"} 1`,
		`latency_seconds_bucket{endpoint="/x",le="0.001"} 1`,
		`latency_seconds_bucket{endpoint="/x",le="0.0025"} 1`,
		`latency_seconds_bucket{endpoint="/x",le="0.005"} 3`,
		`latency_seconds_bucket{endpoint="/x",le="10"} 3`,
		`latency_seconds_bucket{endpoint="/x",le="+Inf"} 4`,
		`latency_seconds_sum{endpoint="/x"} 20.0063`,
		`latency_seconds_count{endpoint="/x"} 4`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
	if n := strings.Count(got, "_bucket{"); n != len(latencyBuckets)+1 {
		t.Errorf("%d bucket lines, want %d", n, len(latencyBuckets)+1)
	}
}

// TestTotalSumsBaseSeries pins Total: it sums only suffix-less samples,
// so a histogram's _bucket/_sum/_count lines never inflate a count.
func TestTotalSumsBaseSeries(t *testing.T) {
	reg := NewRegistry()
	reg.AddFamily("mixed", "untyped", "Mixed.", func() []Sample {
		return []Sample{
			{Labels: LabelSet("k", "a"), Value: 2},
			{Labels: LabelSet("k", "b"), Value: 5},
			{Suffix: "_sum", Value: 100},
			{Suffix: "_count", Value: 1000},
		}
	})
	if got := reg.Total("mixed"); got != 7 {
		t.Errorf("Total(mixed) = %v, want 7", got)
	}
	if got := reg.Total("absent"); got != 0 {
		t.Errorf("Total(absent) = %v, want 0", got)
	}
}

// TestInstrumentRecordsStatus checks the middleware labels each request
// with the status code the handler wrote, defaulting to 200 when the
// handler never calls WriteHeader.
func TestInstrumentRecordsStatus(t *testing.T) {
	reg := NewRegistry()
	reg.AddFamily("requests_total", "counter", "Requests.", reg.CollectRequests)
	missing := reg.Instrument("/missing", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusNotFound)
	})
	ok := reg.Instrument("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("fine"))
	})
	for i := 0; i < 2; i++ {
		missing(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/missing", nil))
	}
	rec := httptest.NewRecorder()
	ok(rec, httptest.NewRequest(http.MethodGet, "/ok", nil))
	if rec.Body.String() != "fine" {
		t.Fatalf("wrapped handler's body lost: %q", rec.Body.String())
	}
	got := string(reg.Render())
	for _, line := range []string{
		`requests_total{endpoint="/missing",code="404"} 2`,
		`requests_total{endpoint="/ok",code="200"} 1`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
	if got := reg.Total("requests_total"); got != 3 {
		t.Errorf("Total(requests_total) = %v, want 3", got)
	}
}

func TestHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.AddScalar("up", "gauge", "Up.", func() float64 { return 1 })
	rec := httptest.NewRecorder()
	reg.Handler(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type %q", ct)
	}
	if !strings.HasSuffix(rec.Body.String(), "up 1\n") {
		t.Errorf("body %q", rec.Body.String())
	}
}
