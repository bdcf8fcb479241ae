// Command perfbench is the repository's end-to-end serving benchmark. It
// hosts one gateway in front of two `krak serve` replicas, all in quick
// mode, on fixed loopback addresses in this one process, drives them
// with a seeded workload over at most nproc connections, checks every
// response against an in-process reference, and prints each metric by
// name with its unit. The last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload serve-hot|predict-cold|mesh-cold --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays the workload with spans around each tier and a mirror pass
// over the layers below, and reports the per-layer metrics. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"time"
)

// config is one run's settings. Tests shrink the scale knobs.
type config struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	trace     bool
	spansPath string
	portBase  int
	conns     int

	setups     int           // set-ups per run; setup_s is their median
	stepLen    time.Duration // one step of the max-rate search
	bisections int           // bisection steps after the search brackets the rate
	searchFor  time.Duration // no rate step starts after this much of the search
	sample     int           // mesh-cold scenarios checked by the oracle and mirrored
	lagRetry   time.Duration // how long to keep re-running a phase whose generator lagged
	lagPause   time.Duration // the wait before each re-run
}

func main() {
	procStart := time.Now()
	cfg := config{conns: runtime.NumCPU(), setups: 9,
		stepLen: 2 * time.Second, bisections: 3, searchFor: 40 * time.Second, sample: 8,
		lagRetry: 60 * time.Second, lagPause: 3 * time.Second}
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-hot, predict-cold or mesh-cold")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.spansPath, "spans", ".bench_build/spans.jsonl", "where a traced run writes its spans (\"\" for nowhere)")
	// The default ports lie below Linux's ephemeral range (32768-60999),
	// so no outgoing connection, live or in TIME_WAIT, can hold one.
	flag.IntVar(&cfg.portBase, "port-base", 27310, "loopback port of the gateway; the replicas take the next ports")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := run(ctx, cfg, procStart, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench carries one run's state.
type bench struct {
	cfg   config
	wl    *workload
	rec   *recorder
	check *checker
	out   io.Writer

	metrics map[string]metric
	order   []string
	notes   map[string]string

	attempted, failed int
}

func (b *bench) put(name, unit string, v float64, note string) {
	if _, dup := b.metrics[name]; !dup {
		b.order = append(b.order, name)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		b.notes[name] = note
	}
}

// run performs one benchmark run and prints its report to out, except
// the final JSON line, which it returns.
func run(ctx context.Context, cfg config, procStart time.Time, out io.Writer) (*result, error) {
	wl, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, wl: wl, rec: newRecorder(), check: newChecker(), out: out,
		metrics: map[string]metric{}, notes: map[string]string{}}
	prov := hostProvenance(wl, cfg)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance %s\n", pj)

	st, setups, err := b.setUp(ctx, procStart)
	if err != nil {
		return nil, err
	}
	defer st.close()
	gen := newGenerator(st.gatewayURL, cfg.conns, b.check, b.rec)
	defer gen.close()
	if err := gen.connect(ctx); err != nil {
		return nil, err
	}

	var phases []*phase
	want := endToEnd
	if cfg.trace {
		want = perLayer
		phases, err = b.traced(ctx, st, gen)
	} else {
		phases, err = b.untraced(ctx, st, gen, setups)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		if _, err := contract(b.metrics, reportOnly); err != nil {
			return nil, err
		}
	}
	final, err := contract(b.metrics, want)
	if err != nil {
		return nil, err
	}
	wrong, err := b.verify()
	if err != nil {
		return nil, err
	}
	b.failed += wrong
	b.printRouting(phases)
	b.printMetrics()
	fmt.Fprintf(out, "requests attempted %d, failed %d (wrong bodies %d), error_rate %.6f\n",
		b.attempted, b.failed, wrong, float64(b.failed)/float64(max(b.attempted, 1)))
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: final}, nil
}

// setUp starts the stack and warms it, cfg.setups times over (tearing
// down all but the last; once for a traced run, which does not report
// setup_s), and returns the last stack and each set-up's seconds. The
// first is timed from process start; the others from their own start.
func (b *bench) setUp(ctx context.Context, procStart time.Time) (*stack, []float64, error) {
	n := b.cfg.setups
	if b.cfg.trace {
		n = 1
	}
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		st, err := startStack(b.cfg.portBase, b.rec)
		if err != nil {
			return nil, nil, err
		}
		if err := b.warm(ctx, st); err != nil {
			st.close()
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == n-1 {
			return st, secs, nil
		}
		st.close()
	}
	return nil, nil, fmt.Errorf("no set-ups configured")
}

func (b *bench) warm(ctx context.Context, st *stack) error {
	hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := st.waitHealthy(hctx); err != nil {
		return err
	}
	for _, u := range st.replicaURL {
		if err := st.warm(ctx, u, b.wl.warmReplicas); err != nil {
			return err
		}
	}
	return st.warm(ctx, st.gatewayURL, b.wl.warmGateway)
}

// timedPhase drives the workload for d: an open loop at the reference
// rate, or the closed loop.
func (b *bench) timedPhase(ctx context.Context, gen *generator, d time.Duration, stream uint64) *phase {
	if b.wl.rate == 0 {
		return gen.closedLoop(ctx, b.wl.take(max(1, int(math.Round(d.Seconds()*b.wl.perSecond)))))
	}
	n := int(b.wl.rate * d.Seconds())
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = b.wl.next()
	}
	return gen.openLoop(ctx, reqs, poissonSchedule(rng(b.cfg.seed, stream), b.wl.rate, n))
}

// snapshot is the process and serving counters at one instant.
type snapshot struct {
	cpu      time.Duration
	alloc    uint64
	replicas counters
	gateway  counters
}

func (b *bench) snap(ctx context.Context, st *stack) (snapshot, error) {
	s := snapshot{cpu: cpuTime(), alloc: allocBytes()}
	var err error
	if s.replicas, err = st.scrapeReplicas(ctx); err != nil {
		return s, err
	}
	s.gateway, err = st.scrape(ctx, st.gatewayURL)
	return s, err
}

// untraced measures the end-to-end metrics: the reference phase, then,
// for an open loop, the max-rate search.
func (b *bench) untraced(ctx context.Context, st *stack, gen *generator, setups []float64) ([]*phase, error) {
	var ph *phase
	var before, after snapshot
	err := b.checkedPhase(func() (err error) {
		if before, err = b.snap(ctx, st); err != nil {
			return err
		}
		ph = b.timedPhase(ctx, gen, b.cfg.seconds, 20)
		after, err = b.snap(ctx, st)
		b.count(ph)
		return err
	}, func() error { return b.selfCheck(ph, before, after) })
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	ok := ph.attempts - ph.failed
	lat := ph.latencies()
	b.put("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups %v", len(setups), roundAll(setups, 4)))
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}, {"latency_p99_ms", 0.99}} {
		if b.wl.rate == 0 {
			b.put(q.name, "ms", quantile(lat, q.q), tailNote(len(lat), q.q))
			continue
		}
		win := windowAt(b.wl.rate, ph.elapsed)
		v, n := ph.windowed(win, q.q)
		b.put(q.name, "ms", v, fmt.Sprintf("median of %d windows of %v; whole phase %.4f, %s",
			n, win, quantile(lat, q.q), tailNote(len(lat), q.q)))
	}
	tput := float64(ok) / ph.elapsed.Seconds()
	b.put("throughput_rps", "1/s", tput, fmt.Sprintf("%d ok in %.2fs", ok, ph.elapsed.Seconds()))
	b.put("heap_mb", "MB", heap, "live heap after a forced GC")
	b.put("cpu_us_per_req", "us", float64(after.cpu-before.cpu)/1e3/float64(max(ok, 1)), "process user+sys")
	b.put("alloc_kb_per_req", "KB", float64(after.alloc-before.alloc)/1024/float64(max(ok, 1)), "")
	lags := ph.lags()
	fmt.Fprintf(b.out, "load generator lag p50 %.4f ms, p99 %.4f ms (windowed %.4f ms)\n",
		median(lags), quantile(lags, 0.99), ph.lagP99(b.wl.rate))
	phases := []*phase{ph}
	if b.wl.rate == 0 {
		b.put("max_rate_rps", "1/s", tput, "closed loop: the rate its one client reaches")
		return phases, nil
	}
	refOK := ph.sustains(windowAt(b.wl.rate, ph.elapsed))
	rate, steps, cut := gen.searchMaxRate(ctx, b.wl, b.cfg.seed, refOK, b.cfg.stepLen, b.cfg.bisections, b.cfg.searchFor)
	for _, s := range steps {
		fmt.Fprintf(b.out, "rate-step %.0f rps: windowed p99 %.3f ms, failed %d, sustained %v\n", s.rate, s.p99, s.failed, s.ok)
		b.attempted += s.attempts
		b.failed += s.failed
	}
	note := fmt.Sprintf("p99 ≤ %v, %d steps of %v", latencyLimit, len(steps), b.cfg.stepLen)
	if cut {
		note += fmt.Sprintf(", cut short by the %v search budget", b.cfg.searchFor)
	}
	b.put("max_rate_rps", "1/s", rate, note)
	return phases, nil
}

func (b *bench) count(ph *phase) {
	b.attempted += ph.attempts
	b.failed += ph.failed
}

// errLag marks a self-check failure a busy shared host can cause; the
// others are properties of the workload and never pass on a retry.
var errLag = errors.New("load generator lag")

// checkedPhase runs a timed phase and its self-check. When only the
// generator's lag failed the check, it waits cfg.lagPause and runs the
// phase again, for as long as cfg.lagRetry after the first failure: a
// shared host goes through slow spells of up to a minute or so, which
// must not void a run, but a generator that never keeps up does. Only a
// phase that passes the check is reported.
func (b *bench) checkedPhase(phase func() error, check func() error) error {
	var deadline time.Time
	for {
		if err := phase(); err != nil {
			return err
		}
		err := check()
		if err == nil || !errors.Is(err, errLag) {
			return err
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(b.cfg.lagRetry)
		}
		if time.Now().Add(b.cfg.lagPause).After(deadline) {
			return err
		}
		fmt.Fprintf(b.out, "timed phase run again: %v\n", err)
		time.Sleep(b.cfg.lagPause)
	}
}

// selfCheck refuses a phase that did not do what its workload claims.
func (b *bench) selfCheck(ph *phase, before, after snapshot) error {
	d := after.replicas.sub(before.replicas)
	hits := d["krak_response_cache_hits_total"]
	lookups := hits + d["krak_response_cache_misses_total"] + d["krak_response_cache_coalesced_total"]
	ratio := hits / max(lookups, 1)
	if b.wl.hits && ratio < 0.99 {
		return fmt.Errorf("self-check: %s LRU hit ratio %.4f < 0.99", b.wl.name, ratio)
	}
	if !b.wl.hits && ratio > 0.01 {
		return fmt.Errorf("self-check: %s LRU hit ratio %.4f > 0.01", b.wl.name, ratio)
	}
	if r := after.gateway.sub(before.gateway)["krak_gateway_retries_total"]; r != 0 {
		return fmt.Errorf("self-check: the gateway retried %.0f times with no faults armed", r)
	}
	for i := range ph.out {
		if a := ph.rec.attempts(i); a != 1 {
			return fmt.Errorf("self-check: request %d reached %d replicas, want 1", ph.rids[i], a)
		}
	}
	if lag := ph.lagP99(b.wl.rate); lag >= float64(latencyLimit)/1e6 {
		return fmt.Errorf("self-check: %w p99 %.3f ms ≥ the %v limit", errLag, lag, latencyLimit)
	}
	return nil
}

func tailNote(n int, q float64) string {
	beyond := float64(n) * (1 - q)
	if beyond < 10 {
		return fmt.Sprintf("n=%d, only %.1f samples beyond: a weak tail estimate", n, beyond)
	}
	return fmt.Sprintf("n=%d", n)
}

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}

// printMetrics prints every metric the run measured, in the order
// measured; the report-only ones say so.
func (b *bench) printMetrics() {
	for _, name := range b.order {
		m := b.metrics[name]
		note := b.notes[name]
		if slices.ContainsFunc(reportOnly, func(d metricDef) bool { return d.name == name }) {
			note = strings.TrimPrefix(note+"; report only, not in the final line", "; ")
		}
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(b.out, "metric %-40s %14.4f %s%s\n", name, m.Value, m.Unit, note)
	}
}
