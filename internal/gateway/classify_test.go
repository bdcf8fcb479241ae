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
// The ring key of a partition-bearing request is pinned by
// TestGatewayPartitionAffinity.
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
	sreq := krak.SimulateRequest{Deck: "small", PEs: 4, Iterations: 1, Machine: spec}

	cases := []struct {
		name, method, path string
		body               []byte
		wantKey            string // exact, or "|"-suffixed digest prefix
		idempotent         bool
		canonical          string // cacheKey, with a local evaluator present
	}{
		{"job poll", http.MethodGet, "/v1/jobs/abc123", nil, "jobs", true, ""},
		{"machine read", http.MethodGet, "/v1/machines/f00dcafe", nil, "machines|f00dcafe", true, ""},
		{"plain GET", http.MethodGet, "/v1/experiments", nil, "GET /v1/experiments", true, ""},
		{"predict", http.MethodPost, "/v1/predict", pb, preq.CanonicalKey(), true, preq.CanonicalKey()},
		{"predict bad json", http.MethodPost, "/v1/predict", []byte("{"), "/v1/predict|", true, ""},
		{"predict unknown field", http.MethodPost, "/v1/predict", []byte(`{"deck":"small","pes":4,"bogus":1}`), "/v1/predict|", true, ""},
		{"predict trailing data", http.MethodPost, "/v1/predict", []byte(`{"deck":"small","pes":4} {}`), "/v1/predict|", true, ""},
		{"simulate", http.MethodPost, "/v1/simulate", sb, sreq.PartitionKey(), true, sreq.CanonicalKey()},
		{"simulate bad json", http.MethodPost, "/v1/simulate", []byte("]"), "/v1/simulate|", true, ""},
		{"simulate unknown field", http.MethodPost, "/v1/simulate", []byte(`{"deck":"small","pes":2,"bogus":1}`), "/v1/simulate|", true, ""},
		{"sweep", http.MethodPost, "/v1/sweep", []byte(`{}`), "/v1/sweep|", true, ""},
		{"compare", http.MethodPost, "/v1/compare", []byte(`{}`), "/v1/compare|", true, ""},
		{"calibrate", http.MethodPost, "/v1/calibrate", []byte(`{}`), "/v1/calibrate|", true, ""},
		{"job submit", http.MethodPost, "/v1/jobs", []byte(`{}`), "jobs", false, ""},
		{"append", http.MethodPost, "/v1/calibrate/append", []byte(`{}`), "/v1/calibrate/append|", false, ""},
		{"machine register", http.MethodPut, "/v1/machines/beef", nil, "machines|beef", false, ""},
		{"unknown POST", http.MethodPost, "/v1/else", nil, "/v1/else|", false, ""},
	}
	for _, tc := range cases {
		c := classify(tc.method, tc.path, tc.body)
		if c.idempotent != tc.idempotent {
			t.Errorf("%s: idempotent = %v, want %v", tc.name, c.idempotent, tc.idempotent)
		}
		switch {
		case strings.HasSuffix(tc.wantKey, "|"):
			if !strings.HasPrefix(c.key, tc.wantKey) || len(c.key) == len(tc.wantKey) {
				t.Errorf("%s: key = %q, want digest under %q", tc.name, c.key, tc.wantKey)
			}
		default:
			if c.key != tc.wantKey {
				t.Errorf("%s: key = %q, want %q", tc.name, c.key, tc.wantKey)
			}
		}
		if tc.canonical != "" {
			if c.cacheKey != tc.canonical || c.local == nil {
				t.Errorf("%s: canonical class incomplete: cacheKey=%q (want %q) local=%v", tc.name, c.cacheKey, tc.canonical, c.local != nil)
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

// TestGatewayPartitionAffinity pins partition-affinity routing: a
// simulate and a mesh-specific predict of one scenario share a ring key
// (the partition's identity) and so one replica, while anything the
// partition depends on — seed, partitioner, PEs, deck, quick — changes
// the key. Response caching stays on the canonical key, and general
// predicts, which read no partition, keep routing on it.
func TestGatewayPartitionAffinity(t *testing.T) {
	var stubs []*stubReplica
	var urls []string
	for i := 0; i < 3; i++ {
		s := newStubReplica()
		defer s.ts.Close()
		stubs = append(stubs, s)
		urls = append(urls, s.ts.URL)
	}
	g, err := New(testConfig(urls...), nil)
	if err != nil {
		t.Fatal(err)
	}
	classify := func(path string, v any) reqClass {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return g.classify(httptest.NewRequest(http.MethodPost, path, nil), body)
	}
	sim := func(pes int, partitioner string, seed uint64) reqClass {
		return classify("/v1/simulate", krak.SimulateRequest{Deck: "medium", PEs: pes, Iterations: 2,
			Partitioner: partitioner, Machine: krak.MachineSpec{Seed: seed, Quick: true}})
	}
	meshPredict := func(pes int, seed uint64) reqClass {
		return classify("/v1/predict", krak.PredictRequest{Deck: "medium", PEs: pes, Model: "mesh-specific",
			Machine: krak.MachineSpec{Seed: seed, Quick: true}})
	}

	base := sim(97, "", 3)
	if !strings.HasPrefix(base.key, "partition|") || base.cacheKey == base.key {
		t.Fatalf("simulate ring key %q, cache key %q: want a partition key beside the canonical one", base.key, base.cacheKey)
	}
	same := map[string]reqClass{
		"mesh-specific predict": meshPredict(97, 3),
		"input-specific alias": classify("/v1/predict", krak.PredictRequest{Deck: "medium", PEs: 97,
			Model: "input-specific", Machine: krak.MachineSpec{Seed: 3, Quick: true}}),
		"explicit multilevel":   sim(97, "multilevel", 3),
		"other iteration count": classify("/v1/simulate", krak.SimulateRequest{Deck: "medium", PEs: 97, Machine: krak.MachineSpec{Seed: 3, Quick: true}}),
		"other interconnect": classify("/v1/simulate", krak.SimulateRequest{Deck: "medium", PEs: 97,
			Machine: krak.MachineSpec{Seed: 3, Quick: true, Interconnect: "gige"}}),
	}
	for name, c := range same {
		if c.key != base.key {
			t.Errorf("%s: ring key %q, want the simulate's %q", name, c.key, base.key)
		}
	}
	differ := map[string]reqClass{
		"seed":        sim(97, "", 4),
		"partitioner": sim(97, "rcb", 3),
		"PEs":         sim(98, "", 3),
		"deck": classify("/v1/simulate", krak.SimulateRequest{Deck: "small", PEs: 97,
			Machine: krak.MachineSpec{Seed: 3, Quick: true}}),
		"quick": classify("/v1/simulate", krak.SimulateRequest{Deck: "medium", PEs: 97,
			Machine: krak.MachineSpec{Seed: 3}}),
		"predict seed": meshPredict(97, 4),
		"predict PEs":  meshPredict(96, 3),
	}
	for name, c := range differ {
		if c.key == base.key {
			t.Errorf("changing the %s kept ring key %q", name, c.key)
		}
	}

	// General predicts read no partition: ring and cache key are both
	// the canonical key.
	for _, model := range []string{"", "general-homo", "general-het"} {
		req := krak.PredictRequest{Deck: "medium", PEs: 97, Model: model, Machine: krak.MachineSpec{Seed: 3, Quick: true}}
		c := classify("/v1/predict", req)
		spec, err := g.resolveSpec(req.Machine)
		if err != nil {
			t.Fatal(err)
		}
		req.Machine = spec
		if want := req.CanonicalKey(); c.key != want || c.cacheKey != want {
			t.Errorf("%q predict: ring key %q, cache key %q, want both %q", model, c.key, c.cacheKey, want)
		}
	}

	// End to end: each scenario's simulate and mesh-specific predict are
	// served by one replica.
	owners := map[int]bool{}
	for pes := 90; pes < 110; pes++ {
		before := make([]int64, len(stubs))
		for i, s := range stubs {
			before[i] = s.requests.Load()
		}
		for _, req := range []struct {
			path string
			v    any
		}{
			{"/v1/simulate", krak.SimulateRequest{Deck: "medium", PEs: pes, Machine: krak.MachineSpec{Quick: true}}},
			{"/v1/predict", krak.PredictRequest{Deck: "medium", PEs: pes, Model: "mesh-specific", Machine: krak.MachineSpec{Quick: true}}},
		} {
			body, _ := json.Marshal(req.v)
			if rec := post(t, g, req.path, body); rec.Code != http.StatusOK {
				t.Fatalf("%s at %d PEs: status %d", req.path, pes, rec.Code)
			}
		}
		for i, s := range stubs {
			switch n := s.requests.Load() - before[i]; n {
			case 0:
			case 2:
				owners[i] = true
			default:
				t.Fatalf("%d PEs: replica %d served %d of the scenario's 2 requests", pes, i, n)
			}
		}
	}
	if len(owners) < 2 {
		t.Errorf("20 scenarios all landed on %d replica(s); partition keys should spread", len(owners))
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
