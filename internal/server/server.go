// Package server is the serving subsystem: an http.Handler exposing the
// performance model over JSON endpoints, built directly on the
// repository's concurrent engine. It turns the one-shot CLI workflow
// into a long-running traffic-serving system:
//
//	POST /v1/predict            analytic model (cached)
//	POST /v1/simulate           cluster simulator (cached)
//	POST /v1/sweep              concurrent (deck, PE) grid (uncached: timings vary)
//	POST /v1/compare            one scenario across many machines (cached)
//	POST /v1/calibrate          fit machine parameters to timings (cached)
//	POST /v1/calibrate/append   fold fresh timings into a registered machine (drift-checked)
//	POST /v1/jobs               submit a sweep as a background job
//	GET  /v1/jobs/{id}          poll a job's status
//	GET  /v1/jobs/{id}/result   fetch a finished job's sweep result
//	GET  /v1/experiments        the paper-artifact registry
//	GET  /v1/experiments/{id}   one regenerated table/figure (cached)
//	GET  /v1/machines           the interconnect presets
//	GET  /v1/machines/{fp}      a registered machine's calibration history
//	POST /v1/machines/{fp}      register a calibration under its fingerprint
//	GET  /healthz               liveness + serving counters (view over /metrics)
//	GET  /metrics               Prometheus text-format serving metrics
//
// Every /v1 route runs behind admission control: endpoint classes (light
// cached reads vs heavy pool-occupying computes) each have a concurrency
// limit and a bounded wait queue, and callers past both get 429 with a
// Retry-After instead of unbounded queueing (see admission.go). With a
// cache directory configured (krak serve -cache-dir), partition vectors
// and rendered response bodies also persist to a content-addressed disk
// tier that survives restarts and can be shared between replicas.
//
// Machines are identified by the content fingerprint of their normalized
// MachineSpec, so file-defined and calibrated machines (custom networks,
// compute scales, specs arriving as embedded machine files) share the
// same capped machine cache as the interconnect presets.
//
// Request flow: a predict/simulate/experiment request is normalized to a
// canonical key and looked up in a size-bounded LRU of fully rendered
// response bodies (an engine.Cache built with a capacity); concurrent
// misses for the same key coalesce through its single-flight fill, so
// one computation feeds every duplicate in flight. A predict or simulate
// miss then runs inline on the request's goroutine — light-class
// admission bounds how many run at once — and the machines themselves
// are shared across requests, so decks, partitions, and calibrations
// stay warm in their unbounded engine.Cache instances across the whole
// request stream.
//
// Responses are byte-identical to the CLI: /v1/predict for a scenario
// returns exactly the bytes `krak predict --json` prints for the same
// flags, down to the trailing newline (the integration test and the CI
// smoke job both diff the two).
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"krak/internal/artifacts"
	"krak/internal/engine"
	"krak/internal/faultinject"
	"krak/internal/metrics"
	"krak/internal/wire"
	"krak/pkg/krak"
)

// Config sizes a Server.
type Config struct {
	// Parallel bounds the worker pools machines and compare fan out on
	// (sweeps, experiments, compare's machine list); 0 means as wide as
	// the hardware allows. Predicts and simulates run inline on their
	// request goroutines, bounded by light-class admission instead.
	Parallel int

	// CacheSize bounds the rendered-response LRU; 0 means 1024 entries.
	CacheSize int

	// Quick applies the CLI's -quick (scaled-down decks and calibrations)
	// to every request's machine, whatever the request says — the mode
	// the CI smoke job serves in.
	Quick bool

	// CacheDir, when set, roots the content-addressed disk cache under
	// the artifact store: partition vectors and rendered response bodies
	// persist there, survive restarts, and may be shared between replicas
	// pointed at the same directory. "" disables persistence.
	CacheDir string

	// LightLimit/LightQueue size the light admission class (cached reads:
	// predict, simulate, experiments, machines, job polls): concurrent
	// in-flight requests and the bounded wait queue behind them. 0 means
	// the defaults (256/1024); a negative limit disables the class's
	// limiter; a negative queue means no queue (refuse once slots fill).
	LightLimit int
	LightQueue int

	// HeavyLimit/HeavyQueue size the heavy admission class (sweep,
	// compare, calibrate — endpoints that occupy the worker pool).
	// 0 means the defaults (4/16); negatives as for the light class.
	HeavyLimit int
	HeavyQueue int

	// RequestTimeout bounds how long a heavy request may run once
	// admitted; 0 means no timeout.
	RequestTimeout time.Duration

	// MaxJobs caps live background jobs (0 means 256); JobTTL is how long
	// a finished job's result stays fetchable (0 means 15m).
	MaxJobs int
	JobTTL  time.Duration

	// Faults, when non-nil, wraps every /v1 route in the deterministic
	// fault-injection middleware — chaos drills only. The CLI refuses to
	// build one unless -allow-faults is set, so it can never ship on by
	// accident; a nil injector is a no-op.
	Faults *faultinject.Injector
}

// maxMachines caps how many distinct machine configurations the server
// memoizes. Machines hold artifact caches (decks, partitions,
// calibrations) and live forever, so an open-ended stream of novel
// (seed, repeats, ...) combinations must saturate rather than exhaust
// memory; past the cap, requests for new configurations are refused with
// 503 while known ones keep serving.
const maxMachines = 64

// Server is the HTTP serving layer. Build with New; it is safe for
// concurrent use by any number of requests.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// machines memoizes Machine instances per normalized MachineSpec in a
	// single-flight cache, so every request against the same platform
	// shares one set of artifact caches.
	machines engine.Cache[string, *krak.Machine]

	// artifacts is the cross-machine artifact cache: every machine the
	// server builds shares it, so requests against different platforms
	// (networks, compute scales) still share decks, graphs, and
	// partitions — only calibrations stay per-machine.
	artifacts *krak.SharedArtifacts

	// responses is the size-bounded LRU of rendered response bodies,
	// keyed by canonical request. Its single-flight Get coalesces
	// duplicate in-flight requests.
	responses *engine.Cache[string, []byte]

	// disk is the persistent tier for rendered response bodies (nil
	// without a cache directory); the artifact store holds its own
	// instance over the same directory for partition vectors.
	disk *artifacts.DiskCache

	pool      *engine.Pool
	metrics   *metrics.Registry
	admission *admission
	jobs      *jobStore

	// machineReg is the versioned fingerprint → fitted-machine history
	// store behind GET/POST /v1/machines/{fingerprint} and the append
	// endpoint (see registry.go).
	machineReg *machineRegistry

	// bg tracks background job goroutines; bgCtx is the context they run
	// under, canceled by Close so shutdown never waits on a sweep that no
	// one is left to poll.
	bg       sync.WaitGroup
	bgCtx    context.Context
	shutdown context.CancelFunc
	closed   atomic.Bool

	requests         atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	cacheCoalesced   atomic.Int64
	machinesRejected atomic.Int64
	driftFlagged     atomic.Int64
}

// New builds a Server from the config. It fails only when a configured
// cache directory cannot be created.
func New(cfg Config) (*Server, error) {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	pool := engine.New(cfg.Parallel)
	sa := krak.NewSharedArtifacts()
	var disk *artifacts.DiskCache
	if cfg.CacheDir != "" {
		var err error
		if sa, err = krak.NewSharedArtifactsAt(cfg.CacheDir); err != nil {
			return nil, err
		}
		if disk, err = artifacts.OpenDiskCache(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		responses: engine.NewCache[string, []byte](cfg.CacheSize),
		pool:      pool,
		artifacts: sa,
		disk:      disk,
		metrics:   metrics.NewRegistry(),
		admission: newAdmission(cfg),
		jobs:      newJobStore(cfg.MaxJobs, cfg.JobTTL),
	}
	s.bgCtx, s.shutdown = context.WithCancel(context.Background())
	s.machineReg = newMachineRegistry(disk)
	s.registerMetrics()
	mux := http.NewServeMux()
	// Observability endpoints are neither instrumented nor admission
	// controlled: they must answer exactly when the server is saturated,
	// and a scrape counting itself would make the counters self-exciting.
	// They also bypass fault injection — a chaos drill that blinded the
	// observer would be unmeasurable.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.metrics.Handler)
	route := func(pattern, endpoint, class string, h http.HandlerFunc) {
		h = s.withAdmission(class, h)
		if cfg.Faults != nil {
			h = cfg.Faults.Middleware(h)
		}
		mux.HandleFunc(pattern, s.metrics.Instrument(endpoint, h))
	}
	route("GET /v1/machines", "/v1/machines", classLight, s.handleMachines)
	route("GET /v1/machines/{fingerprint}", "/v1/machines/{fingerprint}", classLight, s.handleMachineHistory)
	route("POST /v1/machines/{fingerprint}", "/v1/machines/{fingerprint}", classLight, s.handleMachineRegister)
	route("POST /v1/calibrate/append", "/v1/calibrate/append", classHeavy, s.handleCalibrateAppend)
	route("POST /v1/predict", "/v1/predict", classLight, s.handlePredict)
	route("POST /v1/simulate", "/v1/simulate", classLight, s.handleSimulate)
	route("POST /v1/sweep", "/v1/sweep", classHeavy, s.handleSweep)
	route("POST /v1/compare", "/v1/compare", classHeavy, s.handleCompare)
	route("POST /v1/calibrate", "/v1/calibrate", classHeavy, s.handleCalibrate)
	route("POST /v1/jobs", "/v1/jobs", classLight, s.handleJobSubmit)
	route("GET /v1/jobs/{id}", "/v1/jobs/{id}", classLight, s.handleJobStatus)
	route("GET /v1/jobs/{id}/result", "/v1/jobs/{id}/result", classLight, s.handleJobResult)
	route("GET /v1/experiments", "/v1/experiments", classLight, s.handleExperimentList)
	route("GET /v1/experiments/{id}", "/v1/experiments/{id}", classLight, s.handleExperiment)
	s.mux = mux
	return s, nil
}

// registerMetrics declares every metric family /metrics exposes. All of
// them read the server's live counters at scrape time — the same sources
// /healthz renders — so the two views cannot drift.
func (s *Server) registerMetrics() {
	reg := s.metrics
	counter := metrics.Counter
	reg.AddFamily("krak_http_requests_total", "counter",
		"HTTP requests served, by route pattern and status code.", reg.CollectRequests)
	reg.AddFamily("krak_http_request_seconds", "histogram",
		"HTTP request latency in seconds, by route pattern.", reg.CollectLatency)
	reg.AddScalar("krak_requests_total", "counter",
		"All HTTP requests received, matched or not.", counter(&s.requests))
	reg.AddScalar("krak_uptime_seconds", "gauge",
		"Seconds since the server started.", func() float64 { return time.Since(s.start).Seconds() })
	reg.AddScalar("krak_parallelism", "gauge",
		"Worker-pool width machines and compares dispatch on.",
		func() float64 { return float64(s.pool.Workers()) })
	reg.AddScalar("krak_response_cache_hits_total", "counter",
		"Responses served from the rendered-response LRU.", counter(&s.cacheHits))
	reg.AddScalar("krak_response_cache_misses_total", "counter",
		"Responses computed because the LRU had no entry.", counter(&s.cacheMisses))
	reg.AddScalar("krak_response_cache_coalesced_total", "counter",
		"Responses served by joining another request's in-flight fill.", counter(&s.cacheCoalesced))
	reg.AddScalar("krak_response_cache_entries", "gauge",
		"Rendered responses currently cached.", func() float64 { return float64(s.responses.Len()) })
	reg.AddScalar("krak_response_cache_capacity", "gauge",
		"Rendered-response LRU capacity.", func() float64 { return float64(s.responses.Cap()) })
	reg.AddScalar("krak_machines", "gauge",
		"Distinct machine configurations memoized.", func() float64 { return float64(s.machines.Len()) })
	reg.AddScalar("krak_machines_rejected_total", "counter",
		"Requests refused because the machine cap was reached.", counter(&s.machinesRejected))
	limGauge := func(fn func(*engine.Limiter) int) map[string]func() float64 {
		return map[string]func() float64{
			classLight: func() float64 { return float64(fn(s.admission.light)) },
			classHeavy: func() float64 { return float64(fn(s.admission.heavy)) },
		}
	}
	reg.AddLabeled("krak_admission_inflight", "gauge",
		"Admitted requests currently in flight, by endpoint class.",
		limGauge((*engine.Limiter).InFlight), "class")
	reg.AddLabeled("krak_admission_waiting", "gauge",
		"Requests waiting in the bounded admission queue, by endpoint class.",
		limGauge((*engine.Limiter).Waiting), "class")
	reg.AddLabeled("krak_admission_rejected_total", "counter",
		"Requests refused by admission control, by endpoint class.",
		map[string]func() float64{
			classLight: counter(&s.admission.rejectedLight),
			classHeavy: counter(&s.admission.rejectedHeavy),
		}, "class")
	jobGauge := func(state string) func() float64 {
		return func() float64 { return float64(s.jobs.countByStatus()[state]) }
	}
	reg.AddLabeled("krak_jobs", "gauge",
		"Live background jobs, by lifecycle state.",
		map[string]func() float64{
			krak.JobPending: jobGauge(krak.JobPending),
			krak.JobRunning: jobGauge(krak.JobRunning),
			krak.JobDone:    jobGauge(krak.JobDone),
			krak.JobFailed:  jobGauge(krak.JobFailed),
		}, "state")
	reg.AddScalar("krak_jobs_evicted_total", "counter",
		"Finished jobs evicted by TTL or the store cap.", counter(&s.jobs.evicted))
	reg.AddScalar("krak_registered_machines", "gauge",
		"Distinct machine fingerprints in the calibration registry.",
		func() float64 { return float64(s.machineReg.len()) })
	reg.AddScalar("krak_calib_drift_flagged_total", "counter",
		"Appended calibrations whose fresh residuals left the stored fit's stderr band.",
		counter(&s.driftFlagged))
	reg.AddScalar("krak_partition_computes_total", "counter",
		"Partition vectors computed from scratch (neither memory nor disk had them).",
		func() float64 { return float64(s.artifacts.Stats().PartitionComputes) })
	diskSeries := func(art func(krak.ArtifactStats) int64, resp func(artifacts.DiskStats) int64) map[string]func() float64 {
		return map[string]func() float64{
			"artifact": func() float64 { return float64(art(s.artifacts.Stats())) },
			"response": func() float64 { return float64(resp(s.disk.Stats())) },
		}
	}
	reg.AddLabeled("krak_disk_cache_hits_total", "counter",
		"Disk-cache entries that verified and were served, by tier.",
		diskSeries(
			func(a krak.ArtifactStats) int64 { return a.DiskHits },
			func(d artifacts.DiskStats) int64 { return d.Hits }), "tier")
	reg.AddLabeled("krak_disk_cache_misses_total", "counter",
		"Disk-cache lookups that missed, by tier.",
		diskSeries(
			func(a krak.ArtifactStats) int64 { return a.DiskMisses },
			func(d artifacts.DiskStats) int64 { return d.Misses }), "tier")
	reg.AddLabeled("krak_disk_cache_writes_total", "counter",
		"Disk-cache entries written, by tier.",
		diskSeries(
			func(a krak.ArtifactStats) int64 { return a.DiskWrites },
			func(d artifacts.DiskStats) int64 { return d.Writes }), "tier")
	reg.AddLabeled("krak_disk_cache_corrupt_total", "counter",
		"Disk-cache entries discarded as corrupt or version-skewed, by tier.",
		diskSeries(
			func(a krak.ArtifactStats) int64 { return a.DiskCorrupt },
			func(d artifacts.DiskStats) int64 { return d.Corrupt }), "tier")
	if s.cfg.Faults != nil {
		reg.AddLabeled("krak_fault_injected_total", "counter",
			"Faults injected by the armed chaos plan, by kind.",
			s.cfg.Faults.MetricSeries(), "kind")
	}
}

// ServeHTTP implements http.Handler. After Close the server answers
// only 503s: the listener should already be drained by then, so any
// straggler is a caller racing shutdown, and an honest refusal with a
// Retry-After beats dispatching onto torn-down machinery.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("%w: server is shutting down", krak.ErrUnavailable))
		return
	}
	s.mux.ServeHTTP(w, r)
}

// Close stops the server's background machinery after the HTTP listener
// has drained (call it after http.Server.Shutdown): it cancels the
// context background jobs run under and waits for every job goroutine
// to exit. Idempotent; safe on a server that never served a request.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.shutdown()
	s.bg.Wait()
	return nil
}

// maxBody bounds request bodies; the wire types are a few hundred bytes.
const maxBody = 1 << 20

// decode reads a strict JSON body into v (wire.Decode: unknown
// fields and trailing garbage are errors, exactly what the fuzz harness
// pounds on), bounded by maxBody.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	return wire.Decode(http.MaxBytesReader(w, r.Body, maxBody), v)
}

// errorStatus maps a typed krak error to its HTTP status.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, errTooManyMachines):
		// The machine cap can surface through cached fills (compare builds
		// its machines inside one), not only through machineFor call sites.
		return http.StatusServiceUnavailable
	case errors.Is(err, errRegistryFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, krak.ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, errUnknownMachine):
		return http.StatusNotFound
	case errors.Is(err, krak.ErrUnknownExperiment):
		return http.StatusNotFound
	case errors.Is(err, krak.ErrUnknownDeck),
		errors.Is(err, krak.ErrBadPE),
		errors.Is(err, krak.ErrUnknownModel),
		errors.Is(err, krak.ErrUnknownPartitioner),
		errors.Is(err, krak.ErrUnknownInterconnect),
		errors.Is(err, krak.ErrBadOption),
		errors.Is(err, krak.ErrBadDeckSpec),
		errors.Is(err, krak.ErrBadMachineSpec),
		errors.Is(err, krak.ErrCalibration):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// writeError emits the JSON error envelope. Transient refusals — 503s
// like the machine-configuration cap, 429s like a full job store — all
// carry a Retry-After hint, not just the admission path: the condition
// clears on its own, and the header is what tells a well-behaved client
// to back off instead of abandoning the request.
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

// writeJSON marshals v the way the CLI's emit does (indented, trailing
// newline) and writes it.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := renderJSON(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, body)
}

func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// renderJSON produces the exact bytes `krak <subcommand> --json` prints:
// two-space indentation plus the trailing newline fmt.Println adds.
func renderJSON(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// resolveSpec expands an embedded machine file (the wire MachineSpec's
// file field), applies the server-level Quick default, and normalizes —
// after it, the spec's Fingerprint is the machine's serving identity.
func (s *Server) resolveSpec(ms krak.MachineSpec) (krak.MachineSpec, error) {
	r, err := ms.Resolved()
	if err != nil {
		return ms, err
	}
	if s.cfg.Quick {
		r.Quick = true
	}
	return r.Normalized(), nil
}

// errTooManyMachines is the 503 the machine cap returns.
var errTooManyMachines = errors.New("server: too many distinct machine configurations; retry with a known one")

// machineFor returns the shared Machine for a normalized spec, building
// it on first use. All requests against the same platform share the
// machine and therefore its single-flight artifact caches.
func (s *Server) machineFor(ms krak.MachineSpec) (*krak.Machine, error) {
	build := func() (*krak.Machine, error) {
		opts := ms.Options()
		if s.cfg.Parallel > 0 {
			opts = append(opts, krak.WithParallelism(s.cfg.Parallel))
		}
		opts = append(opts, krak.WithSharedArtifacts(s.artifacts))
		return krak.NewMachine(opts...)
	}
	// Validate before touching the cache: an invalid spec gets its own
	// error even at the cap, and a stream of bad requests never holds a
	// slot while its fill fails. Machine construction is cheap (no
	// artifact computes), so validating with a throwaway build costs
	// nothing.
	if _, err := build(); err != nil {
		return nil, err
	}
	// The cap check and the insert happen atomically inside GetBounded: a
	// separate Len probe followed by Get would let a burst of novel
	// specs race past the cap, each seeing Len just under the limit before
	// any of them inserted. Known configurations keep serving past the cap
	// (soft cap) — GetBounded admits existing keys unconditionally.
	m, _, err := s.machines.GetBounded(ms.Fingerprint(), maxMachines, build)
	if errors.Is(err, engine.ErrCacheFull) {
		s.machinesRejected.Add(1)
		return nil, errTooManyMachines
	}
	return m, err
}

// handleHealthz renders the liveness view: every number is read back out
// of the metrics registry (by family name, summing labeled series), so
// /healthz and /metrics are two renderings of the same counters and the
// agreement test can diff them.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	total := func(name string) int64 { return int64(s.metrics.Total(name)) }
	writeJSON(w, map[string]any{
		"status":             "ok",
		"uptime_s":           time.Since(s.start).Seconds(),
		"requests":           total("krak_requests_total"),
		"cache_hits":         total("krak_response_cache_hits_total"),
		"cache_misses":       total("krak_response_cache_misses_total"),
		"cache_coalesced":    total("krak_response_cache_coalesced_total"),
		"cache_len":          total("krak_response_cache_entries"),
		"cache_cap":          total("krak_response_cache_capacity"),
		"machines":           total("krak_machines"),
		"parallelism":        total("krak_parallelism"),
		"admission_rejected": total("krak_admission_rejected_total"),
		"jobs":               total("krak_jobs"),
		"registered":         total("krak_registered_machines"),
		"drift_flagged":      total("krak_calib_drift_flagged_total"),
		"partition_computes": total("krak_partition_computes_total"),
		"disk_hits":          total("krak_disk_cache_hits_total"),
	})
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, krak.ListMachines())
}

// responseKind namespaces rendered response bodies in the disk tier.
const responseKind = "response"

// cachedBody looks key up in the rendered-response LRU, filling it on a
// miss; duplicate misses in flight share the one computation. With a
// cache directory configured, a miss consults the disk tier before
// computing, and fresh computations are persisted — so a restarted
// server serves previously rendered responses byte-identically without
// recomputing them. The LRU reports each request's outcome distinctly:
// a hit found the entry filled, a coalesced request joined another
// request's in-flight fill (it waited, it did not compute, and it was
// not served from the finished cache), and a miss ran the fill itself.
func (s *Server) cachedBody(w http.ResponseWriter, key string, fill func() ([]byte, error)) {
	body, outcome, err := s.responses.Get(key, func() ([]byte, error) {
		if b, ok := s.disk.Get(responseKind, key); ok {
			return b, nil
		}
		b, err := fill()
		if err != nil {
			return nil, err
		}
		s.disk.Put(responseKind, key, b)
		return b, nil
	})
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	switch outcome {
	case engine.Hit:
		s.cacheHits.Add(1)
	case engine.Coalesced:
		s.cacheCoalesced.Add(1)
	default:
		s.cacheMisses.Add(1)
	}
	writeBody(w, body)
}

// cachedResult is cachedBody for handlers that compute a Result,
// rendering it CLI-identically.
func (s *Server) cachedResult(w http.ResponseWriter, key string, compute func() (*krak.Result, error)) {
	s.cachedBody(w, key, func() ([]byte, error) {
		res, err := compute()
		if err != nil {
			return nil, err
		}
		return renderJSON(res)
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req krak.PredictRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req = req.Normalized()
	ms, err := s.resolveSpec(req.Machine)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	req.Machine = ms
	sc, err := req.Scenario()
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	m, err := s.machineFor(req.Machine)
	if err != nil {
		writeError(w, s.machineStatus(err), err)
		return
	}
	key := req.CanonicalKey()
	s.cachedResult(w, key, func() (*krak.Result, error) {
		sess, err := krak.NewSession(m, sc)
		if err != nil {
			return nil, err
		}
		return sess.Predict()
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req krak.SimulateRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req = req.Normalized()
	ms, err := s.resolveSpec(req.Machine)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	req.Machine = ms
	sc, err := req.Scenario()
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	m, err := s.machineFor(req.Machine)
	if err != nil {
		writeError(w, s.machineStatus(err), err)
		return
	}
	key := req.CanonicalKey()
	s.cachedResult(w, key, func() (*krak.Result, error) {
		sess, err := krak.NewSession(m, sc)
		if err != nil {
			return nil, err
		}
		return sess.Simulate()
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req krak.SweepRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req = req.Normalized()
	ms, err := s.resolveSpec(req.Machine)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	req.Machine = ms
	op, grid, err := req.Grid()
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	m, err := s.machineFor(req.Machine)
	if err != nil {
		writeError(w, s.machineStatus(err), err)
		return
	}
	base, err := krak.NewScenario()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess, err := krak.NewSession(m, base)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Sweeps are not response-cached: their wall/work timing fields
	// legitimately vary run to run, and serving stale timings would
	// misreport the realized speedup. The grid points still share the
	// machine's warm artifact caches.
	sr, err := sess.Sweep(r.Context(), op, grid)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, sr)
}

// handleCalibrate fits machine parameters to the request's dataset
// (textual measurement file, structured observations, or self-generated
// runs on the request's machine) and returns a CalibrationResult whose
// body is byte-identical to `krak calibrate --json` for the same inputs.
// Calibration is deterministic for a fixed machine and dataset, so
// responses are cached like predictions, keyed by a content hash of the
// canonical request.
func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	var req krak.CalibrateRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req = req.Normalized()
	ms, err := s.resolveSpec(req.Machine)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	req.Machine = ms
	sc, err := req.Scenario()
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	m, err := s.machineFor(req.Machine)
	if err != nil {
		writeError(w, s.machineStatus(err), err)
		return
	}
	canon, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	key := fmt.Sprintf("calibrate|%x", sha256.Sum256(canon))
	// Like predict fills, the computation runs detached from the request
	// context: coalesced strangers must not be failed by one client
	// disconnecting, and the result is cacheable regardless.
	s.cachedBody(w, key, func() ([]byte, error) {
		sess, err := krak.NewSession(m, sc)
		if err != nil {
			return nil, err
		}
		//krakcheck:ignore ctxflow deliberate detach: coalesced fill shared by other requests must survive this client disconnecting
		ds, err := req.Materialize(context.Background(), sess)
		if err != nil {
			return nil, err
		}
		//krakcheck:ignore ctxflow same deliberate detach as the Materialize call above
		cr, err := sess.Calibrate(context.Background(), ds, krak.CalibrateOptions{Folds: req.Folds, Form: req.Form})
		if err != nil {
			return nil, err
		}
		return renderJSON(cr)
	})
}

// handleMachineHistory serves a registered machine's calibration
// history: the exact bytes stored at registration time, whether they
// came from memory or (after a restart) the disk tier — no refitting.
func (s *Server) handleMachineHistory(w http.ResponseWriter, r *http.Request) {
	body, err := s.machineReg.history(r.PathValue("fingerprint"))
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeBody(w, body)
}

// handleMachineRegister records a calibration result as the
// fingerprint's next version and returns the updated history. The
// result must carry the fingerprint it is being registered under —
// registration is claiming "this calibration described that machine".
func (s *Server) handleMachineRegister(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	var req krak.RegisterMachineRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Result == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("register request carries no calibration result"))
		return
	}
	if req.Result.FittedFingerprint != fp {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("result's fitted fingerprint %s does not match path fingerprint %s",
				req.Result.FittedFingerprint, fp))
		return
	}
	body, err := s.machineReg.register(fp, req.Result, req.Dataset)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeBody(w, body)
}

// handleCalibrateAppend folds fresh measurements into a registered
// machine's stored dataset: the stored fit is checked for drift against
// the fresh data, the merged dataset is refitted, and the refit is
// registered as the fingerprint's next version. The response body is
// byte-identical to `krak calibrate -data <stored> -append <fresh>
// --json` for the same inputs. Appends mutate the registry, so they are
// never response-cached.
func (s *Server) handleCalibrateAppend(w http.ResponseWriter, r *http.Request) {
	var req krak.AppendRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req = req.Normalized()
	ms, err := s.resolveSpec(req.Machine)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	req.Machine = ms
	sc, err := req.Scenario()
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	m, err := s.machineFor(req.Machine)
	if err != nil {
		writeError(w, s.machineStatus(err), err)
		return
	}
	ver, err := s.machineReg.latest(req.Fingerprint)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	if ver.Dataset == "" {
		writeError(w, http.StatusConflict,
			fmt.Errorf("version %d of %s was registered without its dataset; appends need it to refit",
				ver.Version, req.Fingerprint))
		return
	}
	base, err := krak.ParseDataset([]byte(ver.Dataset))
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	fresh, err := req.Fresh()
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	sess, err := krak.NewSession(m, sc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	cr, err := sess.CalibrateAppend(r.Context(), base, fresh, krak.CalibrateOptions{Folds: req.Folds, Form: req.Form})
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	if cr.Drift != nil && cr.Drift.Flagged {
		s.driftFlagged.Add(1)
	}
	merged := &krak.Dataset{Name: base.Name}
	merged.Observations = append(merged.Observations, base.Observations...)
	merged.Observations = append(merged.Observations, fresh.Observations...)
	if _, err := s.machineReg.register(req.Fingerprint, cr, string(merged.Format())); err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, cr)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, krak.ListExperiments())
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ms, err := machineSpecFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if ms, err = s.resolveSpec(ms); err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	m, err := s.machineFor(ms)
	if err != nil {
		writeError(w, s.machineStatus(err), err)
		return
	}
	key := fmt.Sprintf("experiment|%s|%s", id, ms.Fingerprint())
	s.cachedResult(w, key, func() (*krak.Result, error) {
		sc, err := krak.NewScenario()
		if err != nil {
			return nil, err
		}
		sess, err := krak.NewSession(m, sc)
		if err != nil {
			return nil, err
		}
		return sess.Experiment(id)
	})
}

// machineSpecFromQuery reads the optional machine parameters GET
// endpoints accept: ?interconnect=, ?seed=, ?repeats=, ?quick=.
func machineSpecFromQuery(r *http.Request) (krak.MachineSpec, error) {
	var ms krak.MachineSpec
	q := r.URL.Query()
	ms.Interconnect = q.Get("interconnect")
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return ms, fmt.Errorf("bad seed %q: %v", v, err)
		}
		ms.Seed = n
	}
	if v := q.Get("repeats"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return ms, fmt.Errorf("bad repeats %q: %v", v, err)
		}
		ms.Repeats = n
	}
	if v := q.Get("quick"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return ms, fmt.Errorf("bad quick %q: %v", v, err)
		}
		ms.Quick = b
	}
	return ms, nil
}

// machineStatus maps machineFor errors: the cap is 503, the rest are the
// usual typed-error statuses.
func (s *Server) machineStatus(err error) int {
	if errors.Is(err, errTooManyMachines) {
		return http.StatusServiceUnavailable
	}
	return errorStatus(err)
}
