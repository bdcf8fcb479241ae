package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"krak/pkg/krak"
)

// TestClassify pins the routing table: which ring key each endpoint
// hashes on, which methods are safe to retry across replicas, and
// which requests carry a canonical cache key with a local evaluator.
func TestClassify(t *testing.T) {
	g, err := New(testConfig("http://127.0.0.1:1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	classify := func(method, path string, body []byte) reqClass {
		r := httptest.NewRequest(method, path, nil)
		return g.classify(r, body)
	}

	pb := predictBody(8)
	var preq krak.PredictRequest
	if err := json.Unmarshal(pb, &preq); err != nil {
		t.Fatal(err)
	}
	spec, err := g.resolveSpec(preq.Machine)
	if err != nil {
		t.Fatal(err)
	}
	preq.Machine = spec

	sb, _ := json.Marshal(krak.SimulateRequest{Deck: "small", PEs: 4, Iterations: 1})

	cases := []struct {
		name, method, path string
		body               []byte
		wantKey            string // exact, or "|"-suffixed digest prefix
		idempotent         bool
		canonical          bool // cacheKey + local evaluator present
	}{
		{"job poll", http.MethodGet, "/v1/jobs/abc123", nil, "jobs", true, false},
		{"machine read", http.MethodGet, "/v1/machines/f00dcafe", nil, "machines|f00dcafe", true, false},
		{"plain GET", http.MethodGet, "/v1/experiments", nil, "GET /v1/experiments", true, false},
		{"predict", http.MethodPost, "/v1/predict", pb, preq.CanonicalKey(), true, true},
		{"predict bad json", http.MethodPost, "/v1/predict", []byte("{"), "/v1/predict|", true, false},
		{"predict unknown field", http.MethodPost, "/v1/predict", []byte(`{"deck":"small","pes":4,"bogus":1}`), "/v1/predict|", true, false},
		{"predict trailing data", http.MethodPost, "/v1/predict", []byte(`{"deck":"small","pes":4} {}`), "/v1/predict|", true, false},
		{"simulate", http.MethodPost, "/v1/simulate", sb, "", true, true},
		{"simulate bad json", http.MethodPost, "/v1/simulate", []byte("]"), "/v1/simulate|", true, false},
		{"simulate unknown field", http.MethodPost, "/v1/simulate", []byte(`{"deck":"small","pes":2,"bogus":1}`), "/v1/simulate|", true, false},
		{"sweep", http.MethodPost, "/v1/sweep", []byte(`{}`), "/v1/sweep|", true, false},
		{"compare", http.MethodPost, "/v1/compare", []byte(`{}`), "/v1/compare|", true, false},
		{"calibrate", http.MethodPost, "/v1/calibrate", []byte(`{}`), "/v1/calibrate|", true, false},
		{"job submit", http.MethodPost, "/v1/jobs", []byte(`{}`), "jobs", false, false},
		{"append", http.MethodPost, "/v1/calibrate/append", []byte(`{}`), "/v1/calibrate/append|", false, false},
		{"machine register", http.MethodPut, "/v1/machines/beef", nil, "machines|beef", false, false},
		{"unknown POST", http.MethodPost, "/v1/else", nil, "/v1/else|", false, false},
	}
	for _, tc := range cases {
		c := classify(tc.method, tc.path, tc.body)
		if c.idempotent != tc.idempotent {
			t.Errorf("%s: idempotent = %v, want %v", tc.name, c.idempotent, tc.idempotent)
		}
		switch {
		case tc.wantKey == "":
		case strings.HasSuffix(tc.wantKey, "|"):
			if !strings.HasPrefix(c.key, tc.wantKey) || len(c.key) == len(tc.wantKey) {
				t.Errorf("%s: key = %q, want digest under %q", tc.name, c.key, tc.wantKey)
			}
		default:
			if c.key != tc.wantKey {
				t.Errorf("%s: key = %q, want %q", tc.name, c.key, tc.wantKey)
			}
		}
		if tc.canonical {
			if c.cacheKey == "" || c.cacheKey != c.key || c.local == nil {
				t.Errorf("%s: canonical class incomplete: cacheKey=%q local=%v", tc.name, c.cacheKey, c.local != nil)
			}
		} else if c.cacheKey != "" || c.local != nil {
			t.Errorf("%s: unexpected degraded tier: cacheKey=%q", tc.name, c.cacheKey)
		}
	}

	// Identical content always lands on the same ring key, so replica
	// caches stay warm no matter which client sent the request.
	a := classify(http.MethodPost, "/v1/predict", pb)
	b := classify(http.MethodPost, "/v1/predict", pb)
	if a.key != b.key {
		t.Fatalf("same content classified to different keys: %q vs %q", a.key, b.key)
	}
}

func TestEndpointLabel(t *testing.T) {
	cases := map[string]string{
		"/v1/jobs/abc/result":   "/v1/jobs/{id}/result",
		"/v1/jobs/abc":          "/v1/jobs/{id}",
		"/v1/machines/f00":      "/v1/machines/{fingerprint}",
		"/v1/experiments/fig_4": "/v1/experiments/{id}",
		"/v1/predict":           "/v1/predict",
		"/healthz":              "/healthz",
	}
	for path, want := range cases {
		if got := endpointLabel(path); got != want {
			t.Errorf("endpointLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestGatewayDegradedQuickSimulate is the simulate twin of the predict
// quick-tier test: with every replica dead and no cached response, the
// gateway runs the scaled-down simulator locally rather than failing.
func TestGatewayDegradedQuickSimulate(t *testing.T) {
	dead := newStubReplica()
	dead.ts.Close()
	cfg := testConfig(dead.ts.URL)
	cfg.Quick = true
	cfg.LocalFallback = true
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(krak.SimulateRequest{Deck: "small", PEs: 2, Iterations: 1})
	rec := post(t, g, "/v1/simulate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body %s, want local-fallback 200", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Krak-Degraded"); got != "quick" {
		t.Fatalf("Krak-Degraded %q, want quick", got)
	}
	var res krak.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("degraded body does not decode as a Result: %v", err)
	}
	if res.Kind != krak.KindSimulate || res.TotalSeconds <= 0 {
		t.Fatalf("implausible local simulate result: %+v", res)
	}
}

// TestGatewayRejectedBodyNotDegraded pins that the degraded tiers only
// answer bodies a replica would accept: with every replica dead, a
// predict carrying an unknown field (a replica answers 400) must not
// come back as a 200 computed locally.
func TestGatewayRejectedBodyNotDegraded(t *testing.T) {
	dead := newStubReplica()
	dead.ts.Close()
	cfg := testConfig(dead.ts.URL)
	cfg.Quick = true
	cfg.LocalFallback = true
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, g, "/v1/predict", []byte(`{"deck":"small","pes":4,"bogus":1}`))
	if rec.Code == http.StatusOK {
		t.Fatalf("status 200 body %s for a body every replica rejects", rec.Body.String())
	}
	if got := rec.Header().Get("Krak-Degraded"); got != "" {
		t.Fatalf("Krak-Degraded %q on a body every replica rejects", got)
	}
}
