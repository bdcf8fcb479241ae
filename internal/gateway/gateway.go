// Package gateway is the multi-replica resilience layer in front of
// `krak serve`: a stdlib-only reverse proxy that makes a fleet of
// replicas drivable as one service. Requests route by consistent
// hashing of the serving tier's canonical request keys — the same
// content-derived keys the replicas' response LRUs use — so a given
// scenario always lands on the replica whose caches are already warm
// for it. Around that routing sit the failure-handling layers ROADMAP
// item 1's "millions of users" story needs: per-replica health probing,
// bounded retries with exponential backoff and full jitter on
// idempotent endpoints, per-replica circuit breakers, failover along
// the hash ring, and graceful degradation — when every replica for a
// key is unavailable the gateway serves from its own read-through disk
// cache, or evaluates the request locally in quick mode with a
// `Krak-Degraded` response header, before it will return a 503 (which
// then carries krak.ErrUnavailable semantics and a Retry-After).
//
// Everything observable is exported through the shared metrics
// registry: krak_gateway_retries_total, krak_gateway_breaker_state,
// krak_gateway_degraded_total{mode}, per-replica health gauges, and the
// standard request/latency families.
package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"krak/internal/artifacts"
	"krak/internal/engine"
	"krak/internal/faultinject"
	"krak/internal/metrics"
	"krak/internal/stats"
	"krak/internal/wire"
	"krak/pkg/krak"
)

// maxBody bounds proxied request bodies, mirroring the serving tier.
const maxBody = 1 << 20

// maxLocalMachines caps the machine cache behind local degraded
// evaluation — a last-resort tier needs far fewer than the replicas do.
const maxLocalMachines = 16

// responseKind namespaces rendered response bodies in the disk tier —
// the same namespace `krak serve` uses, so a gateway and a replica
// pointed at one directory share entries.
const responseKind = "response"

// replica is one backend: its URL, probe-maintained health, and
// breaker.
type replica struct {
	url     string
	healthy atomic.Bool
	probes  atomic.Int64
	breaker *breaker
}

// Gateway is the reverse proxy. Build with New, launch health probes
// with Start, serve it as an http.Handler, Close after the listener
// drains.
type Gateway struct {
	cfg      Config
	client   *http.Client
	faults   *faultinject.Injector
	replicas []*replica
	ring     *ring
	metrics  *metrics.Registry
	start    time.Time

	// disk is the gateway's own read-through response cache (nil
	// without a cache directory) — degradation tier one.
	disk *artifacts.DiskCache

	// artifacts/machines back local degraded evaluation — tier two.
	artifacts *krak.SharedArtifacts
	machines  engine.Cache[string, *krak.Machine]

	// rng drives retry jitter; guarded by rngMu (SplitMix64 is not
	// concurrency-safe).
	rngMu sync.Mutex
	rng   *stats.SplitMix64

	// probeWG tracks the health-probe goroutines Start launched;
	// stopProbes cancels the context they run under.
	probeWG    sync.WaitGroup
	stopProbes context.CancelFunc

	requests       atomic.Int64
	retries        atomic.Int64
	failovers      atomic.Int64
	degradedCache  atomic.Int64
	degradedQuick  atomic.Int64
	unavailable    atomic.Int64
	proxiedByIndex []atomic.Int64
}

// New builds a Gateway. It spawns nothing — call Start to launch the
// health-probe loops. Faults, when non-nil, wraps the replica-facing
// transport in the fault-injection layer (chaos drills only; nil is a
// no-op).
func New(cfg Config, faults *faultinject.Injector) (*Gateway, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var disk *artifacts.DiskCache
	sa := krak.NewSharedArtifacts()
	if cfg.CacheDir != "" {
		var err error
		if sa, err = krak.NewSharedArtifactsAt(cfg.CacheDir); err != nil {
			return nil, err
		}
		if disk, err = artifacts.OpenDiskCache(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	g := &Gateway{
		cfg:    cfg,
		faults: faults,
		client: &http.Client{
			Transport: faults.RoundTripper(http.DefaultTransport.(*http.Transport).Clone()),
		},
		ring:           newRing(cfg.Replicas, cfg.VirtualNodes),
		metrics:        metrics.NewRegistry(),
		start:          time.Now(),
		disk:           disk,
		artifacts:      sa,
		rng:            stats.NewSplitMix64(cfg.Seed),
		proxiedByIndex: make([]atomic.Int64, len(cfg.Replicas)),
	}
	for _, u := range cfg.Replicas {
		rep := &replica{url: strings.TrimRight(u, "/"), breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		// Replicas start healthy: the first probe corrects within one
		// interval, and optimism just means one failed attempt that the
		// retry/failover path absorbs anyway.
		rep.healthy.Store(true)
		g.replicas = append(g.replicas, rep)
	}
	g.registerMetrics()
	return g, nil
}

// Start launches one health-probe loop per replica; the loops exit when
// ctx is canceled or Close is called.
func (g *Gateway) Start(ctx context.Context) {
	ctx, g.stopProbes = context.WithCancel(ctx)
	for _, rep := range g.replicas {
		g.probeWG.Add(1)
		go g.probeLoop(ctx, rep)
	}
}

// Close stops the probe loops and waits for them to exit. It is safe
// whether or not Start's context was already canceled, and on a gateway
// that was never started.
func (g *Gateway) Close() error {
	if g.stopProbes != nil {
		g.stopProbes()
	}
	g.probeWG.Wait()
	return nil
}

// probeLoop probes one replica's /healthz on the configured cadence and
// publishes the verdict on rep.healthy. An unhealthy replica is skipped
// by routing entirely; the breaker handles the finer-grained case of a
// replica that answers probes but fails requests.
func (g *Gateway) probeLoop(ctx context.Context, rep *replica) {
	defer g.probeWG.Done()
	g.probe(ctx, rep)
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.probe(ctx, rep)
		}
	}
}

// probe runs one health check.
func (g *Gateway) probe(ctx context.Context, rep *replica) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := g.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rep.healthy.Store(ok)
	rep.probes.Add(1)
}

// reqClass is the routing classification of one request: the ring key
// it hashes on, whether retry/failover across replicas is safe, and —
// for the two canonically-keyed endpoints — the response-cache key and
// a local evaluator for the degraded tiers.
type reqClass struct {
	key        string
	idempotent bool
	cacheKey   string
	local      func(ctx context.Context) ([]byte, error)
}

// classify derives a request's class from method, path, and body.
//
// Predict and simulate route by their canonical content key (the warm-
// cache routing the ring exists for) and degrade all the way to local
// evaluation. Their bodies decode with the replicas' strict rule
// (wire.Decode); one a replica would reject routes by digest with no
// degraded tier, so an outage cannot turn a 400 into a 200. Sweep,
// compare, and calibrate are pure functions of their body, so they
// route by a body digest and are retried/failed over, but
// have no degraded tier (too heavy to run locally). Job endpoints all
// anchor to one ring key — the job store is per-replica state, so
// submissions and polls must land on the same backend; submission is
// the one non-idempotent POST there. Machine registry writes anchor to
// the fingerprint and are single-attempt. GETs are idempotent by
// definition and route by path.
func (g *Gateway) classify(r *http.Request, body []byte) reqClass {
	path := r.URL.Path
	if r.Method == http.MethodGet {
		if strings.HasPrefix(path, "/v1/jobs/") {
			return reqClass{key: "jobs", idempotent: true}
		}
		if strings.HasPrefix(path, "/v1/machines/") {
			return reqClass{key: "machines|" + strings.TrimPrefix(path, "/v1/machines/"), idempotent: true}
		}
		return reqClass{key: "GET " + path, idempotent: true}
	}
	digest := func() string {
		sum := sha256.Sum256(body)
		return fmt.Sprintf("%s|%x", path, sum[:8])
	}
	switch path {
	case "/v1/predict":
		var req krak.PredictRequest
		if err := wire.Decode(bytes.NewReader(body), &req); err != nil {
			return reqClass{key: digest(), idempotent: true}
		}
		ms, err := g.resolveSpec(req.Machine)
		if err != nil {
			return reqClass{key: digest(), idempotent: true}
		}
		req.Machine = ms
		key := req.CanonicalKey()
		return reqClass{key: key, idempotent: true, cacheKey: key,
			local: func(ctx context.Context) ([]byte, error) { return g.localPredict(req) }}
	case "/v1/simulate":
		var req krak.SimulateRequest
		if err := wire.Decode(bytes.NewReader(body), &req); err != nil {
			return reqClass{key: digest(), idempotent: true}
		}
		ms, err := g.resolveSpec(req.Machine)
		if err != nil {
			return reqClass{key: digest(), idempotent: true}
		}
		req.Machine = ms
		key := req.CanonicalKey()
		return reqClass{key: key, idempotent: true, cacheKey: key,
			local: func(ctx context.Context) ([]byte, error) { return g.localSimulate(req) }}
	case "/v1/sweep", "/v1/compare", "/v1/calibrate":
		return reqClass{key: digest(), idempotent: true}
	case "/v1/jobs":
		return reqClass{key: "jobs", idempotent: false}
	case "/v1/calibrate/append":
		return reqClass{key: digest(), idempotent: false}
	}
	if strings.HasPrefix(path, "/v1/machines/") {
		return reqClass{key: "machines|" + strings.TrimPrefix(path, "/v1/machines/"), idempotent: false}
	}
	return reqClass{key: digest(), idempotent: false}
}

// resolveSpec mirrors the serving tier's: expand an embedded machine
// file, apply the gateway-level Quick, normalize. The gateway's view of
// a request must resolve exactly as the replicas' or the canonical keys
// would not match the bodies the replicas cache.
func (g *Gateway) resolveSpec(ms krak.MachineSpec) (krak.MachineSpec, error) {
	r, err := ms.Resolved()
	if err != nil {
		return ms, err
	}
	if g.cfg.Quick {
		r.Quick = true
	}
	return r.Normalized(), nil
}

// ServeHTTP routes one request: gateway-local observability endpoints,
// then the proxy path with retry, failover, and degradation.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		g.handleHealthz(w, r)
		return
	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		g.metrics.Handler(w, r)
		return
	}
	g.metrics.Instrument(endpointLabel(r.URL.Path), g.proxy)(w, r)
}

// endpointLabel collapses id-bearing paths onto their route patterns so
// the metric label space stays bounded.
func endpointLabel(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/result"):
		return "/v1/jobs/{id}/result"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/machines/"):
		return "/v1/machines/{fingerprint}"
	case strings.HasPrefix(path, "/v1/experiments/"):
		return "/v1/experiments/{id}"
	}
	return path
}

// proxy is the routed path: pick the key's replica sequence, attempt
// with retry/backoff/failover as the class allows, then degrade.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("gateway: reading request body: %v", err))
		return
	}
	if len(body) > maxBody {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("gateway: request body exceeds %d bytes", maxBody))
		return
	}
	class := g.classify(r, body)
	seq := g.ring.sequence(class.key)

	attempts := 0
	budget := 1
	if class.idempotent {
		budget = 1 + g.cfg.Retries
	}
	now := time.Now()
	for _, idx := range seq {
		if attempts >= budget {
			break
		}
		rep := g.replicas[idx]
		if !rep.healthy.Load() || !rep.breaker.allow(now) {
			continue
		}
		if attempts > 0 {
			g.retries.Add(1)
			g.failovers.Add(1)
			g.backoff(r.Context(), attempts)
		}
		attempts++
		resp, respBody, err := g.forward(r, rep, body)
		if err != nil || !acceptable(resp.StatusCode, respBody) {
			rep.breaker.failure(time.Now())
			now = time.Now()
			continue
		}
		rep.breaker.success()
		g.proxiedByIndex[idx].Add(1)
		if class.cacheKey != "" && resp.StatusCode == http.StatusOK {
			g.disk.Put(responseKind, class.cacheKey, respBody)
		}
		copyHeaders(w, resp)
		w.WriteHeader(resp.StatusCode)
		w.Write(respBody)
		return
	}
	g.degrade(w, r, class)
}

// acceptable reports whether a proxied response is servable. 5xx means
// the replica failed; a 2xx body that is not valid UTF-8 or not valid
// JSON means it was corrupted or truncated in flight (every serving-
// tier body is ASCII JSON) — both push the gateway to the next replica
// rather than relaying garbage.
func acceptable(status int, body []byte) bool {
	if status >= 500 {
		return false
	}
	if status < 300 && (!utf8.Valid(body) || !json.Valid(body)) {
		return false
	}
	return true
}

// forward sends one attempt to one replica, preserving method, path,
// query, and content type. The response body is fully read here so the
// caller can integrity-check before a byte reaches the client.
func (g *Gateway) forward(r *http.Request, rep *replica, body []byte) (*http.Response, []byte, error) {
	url := rep.url + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, nil, err
	}
	return resp, respBody, nil
}

// copyHeaders relays the response headers the serving tier's clients
// depend on; hop-by-hop noise stays behind.
func copyHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, k := range []string{"Content-Type", "Location", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}

// backoff sleeps the jittered exponential delay before retry n (n ≥ 1):
// uniform in [0, min(base·2ⁿ⁻¹, cap)) — full jitter, so a thundering
// herd of retries decorrelates. Respects ctx cancellation.
func (g *Gateway) backoff(ctx context.Context, attempt int) {
	d := g.cfg.RetryBase << (attempt - 1)
	if d > g.cfg.RetryCap || d <= 0 {
		d = g.cfg.RetryCap
	}
	g.rngMu.Lock()
	frac := float64(g.rng.Next()>>11) / (1 << 53)
	g.rngMu.Unlock()
	jittered := time.Duration(frac * float64(d))
	if jittered <= 0 {
		return
	}
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// degrade serves a request no replica could: the read-through disk tier
// first (a body some replica rendered earlier — byte-identical by
// construction), then local quick evaluation, then an honest 503
// carrying krak.ErrUnavailable and a Retry-After.
func (g *Gateway) degrade(w http.ResponseWriter, r *http.Request, class reqClass) {
	if class.cacheKey != "" {
		if body, ok := g.disk.Get(responseKind, class.cacheKey); ok {
			g.degradedCache.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Krak-Degraded", "cache")
			w.Write(body)
			return
		}
	}
	if class.local != nil && g.cfg.LocalFallback {
		body, err := class.local(r.Context())
		if err == nil {
			g.degradedQuick.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Krak-Degraded", "quick")
			w.Write(body)
			return
		}
	}
	g.unavailable.Add(1)
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("%w: no replica available for this request", krak.ErrUnavailable))
}

// localMachine builds (or reuses) the Machine for local degraded
// evaluation, under a tighter cap than the serving tier's — the
// fallback exists to keep known scenarios answerable, not to become a
// second fleet.
func (g *Gateway) localMachine(ms krak.MachineSpec) (*krak.Machine, error) {
	build := func() (*krak.Machine, error) {
		opts := append(ms.Options(), krak.WithSharedArtifacts(g.artifacts))
		return krak.NewMachine(opts...)
	}
	if _, err := build(); err != nil {
		return nil, err
	}
	m, _, err := g.machines.GetBounded(ms.Fingerprint(), maxLocalMachines, build)
	if errors.Is(err, engine.ErrCacheFull) {
		return nil, fmt.Errorf("%w: local fallback machine cache full", krak.ErrUnavailable)
	}
	return m, err
}

// localPredict evaluates a predict request in-process, rendering the
// body exactly as a replica would (same compute path, same rendering),
// so even the deepest degradation tier stays byte-compatible.
func (g *Gateway) localPredict(req krak.PredictRequest) ([]byte, error) {
	sc, err := req.Scenario()
	if err != nil {
		return nil, err
	}
	m, err := g.localMachine(req.Machine)
	if err != nil {
		return nil, err
	}
	sess, err := krak.NewSession(m, sc)
	if err != nil {
		return nil, err
	}
	res, err := sess.Predict()
	if err != nil {
		return nil, err
	}
	return renderJSON(res)
}

// localSimulate is localPredict for the simulate endpoint.
func (g *Gateway) localSimulate(req krak.SimulateRequest) ([]byte, error) {
	sc, err := req.Scenario()
	if err != nil {
		return nil, err
	}
	m, err := g.localMachine(req.Machine)
	if err != nil {
		return nil, err
	}
	sess, err := krak.NewSession(m, sc)
	if err != nil {
		return nil, err
	}
	res, err := sess.Simulate()
	if err != nil {
		return nil, err
	}
	return renderJSON(res)
}

// handleHealthz renders the gateway's liveness view; like the serving
// tier's, every number is read back out of the metrics registry so
// /healthz and /metrics cannot disagree.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	total := func(name string) int64 { return int64(g.metrics.Total(name)) }
	healthy := 0
	for _, rep := range g.replicas {
		if rep.healthy.Load() {
			healthy++
		}
	}
	writeJSON(w, map[string]any{
		"status":           "ok",
		"uptime_s":         time.Since(g.start).Seconds(),
		"replicas":         len(g.replicas),
		"replicas_healthy": healthy,
		"requests":         total("krak_gateway_requests_total"),
		"retries":          total("krak_gateway_retries_total"),
		"failovers":        total("krak_gateway_failovers_total"),
		"degraded":         total("krak_gateway_degraded_total"),
		"unavailable":      total("krak_gateway_unavailable_total"),
	})
}

// registerMetrics declares the gateway's metric families.
func (g *Gateway) registerMetrics() {
	reg := g.metrics
	counter := metrics.Counter
	reg.AddFamily("krak_http_requests_total", "counter",
		"Proxied requests by endpoint and status code.", reg.CollectRequests)
	reg.AddFamily("krak_http_request_seconds", "histogram",
		"Proxied request latency by endpoint.", reg.CollectLatency)
	reg.AddScalar("krak_gateway_requests_total", "counter",
		"Requests received by the gateway (including observability endpoints).", counter(&g.requests))
	reg.AddScalar("krak_gateway_retries_total", "counter",
		"Retry attempts beyond each request's first.", counter(&g.retries))
	reg.AddScalar("krak_gateway_failovers_total", "counter",
		"Attempts that moved to a different replica on the ring.", counter(&g.failovers))
	reg.AddScalar("krak_gateway_unavailable_total", "counter",
		"Requests no replica and no degraded tier could serve (503).", counter(&g.unavailable))
	reg.AddLabeled("krak_gateway_degraded_total", "counter",
		"Requests served by a degraded tier instead of a replica.", map[string]func() float64{
			"cache": counter(&g.degradedCache),
			"quick": counter(&g.degradedQuick),
		}, "mode")
	breakerSeries := make(map[string]func() float64, len(g.replicas))
	healthSeries := make(map[string]func() float64, len(g.replicas))
	proxiedSeries := make(map[string]func() float64, len(g.replicas))
	for i, rep := range g.replicas {
		rep := rep
		i := i
		breakerSeries[rep.url] = func() float64 { return float64(rep.breaker.value()) }
		healthSeries[rep.url] = func() float64 {
			if rep.healthy.Load() {
				return 1
			}
			return 0
		}
		proxiedSeries[rep.url] = func() float64 { return float64(g.proxiedByIndex[i].Load()) }
	}
	reg.AddLabeled("krak_gateway_breaker_state", "gauge",
		"Circuit-breaker state per replica (0 closed, 1 half-open, 2 open).", breakerSeries, "replica")
	reg.AddLabeled("krak_gateway_replica_healthy", "gauge",
		"Last health-probe verdict per replica (1 healthy).", healthSeries, "replica")
	reg.AddLabeled("krak_gateway_replica_proxied_total", "counter",
		"Requests served by each replica.", proxiedSeries, "replica")
	if g.faults != nil {
		reg.AddLabeled("krak_fault_injected_total", "counter",
			"Faults injected into the replica-facing client by the armed chaos plan, by kind.",
			g.faults.MetricSeries(), "kind")
	}
}

// writeError emits the serving tier's JSON error envelope; transient
// refusals carry a Retry-After, exactly as replicas' do.
func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON renders v CLI-identically (two-space indent, trailing
// newline) and writes it.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := renderJSON(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// renderJSON produces the exact bytes the CLI and the replicas emit.
func renderJSON(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
