package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// latencyLimit is the p99 an open-loop rate must meet to count as
// sustained.
const latencyLimit = 10 * time.Millisecond

// outcome is one timed request. Times are nanoseconds since the phase
// began: when it was due, when a connection sent it, when its body was
// read.
type outcome struct {
	due, sent, done int64
	ok              bool
}

func (o outcome) latency() time.Duration { return time.Duration(o.done - o.due) }
func (o outcome) lag() time.Duration     { return time.Duration(o.sent - o.due) }

// phase is the result of driving one batch of requests.
type phase struct {
	reqs     []request
	out      []outcome
	rids     []int64 // the unique query id each request carried
	rec      *phaseRec
	elapsed  time.Duration
	attempts int // requests sent
	failed   int // transport errors, non-200s, degraded or undecodable bodies
}

// generator sends requests to the gateway over at most conns connections.
type generator struct {
	client *http.Client
	url    string
	conns  int
	check  *checker
	rec    *recorder
	rid    atomic.Int64
}

func newGenerator(gatewayURL string, conns int, check *checker, rec *recorder) *generator {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &generator{client: &http.Client{Transport: tr}, url: gatewayURL, conns: conns, check: check, rec: rec}
}

func (d *generator) close() { d.client.CloseIdleConnections() }

// connect opens the generator's connections before any timing, one
// /healthz request per connection at once, so that no timed request
// pays for a TCP handshake.
func (d *generator) connect(ctx context.Context) error {
	errs := make(chan error, d.conns)
	for w := 0; w < d.conns; w++ {
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
			if err == nil {
				var resp *http.Response
				if resp, err = d.client.Do(req); err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			errs <- err
		}()
	}
	for w := 0; w < d.conns; w++ {
		if err := <-errs; err != nil {
			return fmt.Errorf("connecting the load generator: %w", err)
		}
	}
	return nil
}

// send issues one request, reads the whole body, and checks it: a
// transport error, a non-200 status, a degraded answer or a body the
// oracle refuses fails the request.
func (d *generator) send(ctx context.Context, req request, rid int64) (ok bool, done time.Time) {
	url := fmt.Sprintf("%s%s?rid=%d", d.url, req.op.path(), rid)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(req.body))
	if err != nil {
		return false, time.Now()
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(hr)
	if err != nil {
		return false, time.Now()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Krak-Degraded") != "" {
		return false, done
	}
	return d.check.observe(req, body), done
}

// openLoop sends reqs at their due times (offsets from the phase start),
// whatever the replies are doing: each of conns workers, one per
// connection, claims the next request in order, sleeps until it is due,
// and sends it. A request that finds every connection busy goes out
// late; its latency still counts from when it was due.
func (d *generator) openLoop(ctx context.Context, reqs []request, due []time.Duration) *phase {
	ph := &phase{reqs: reqs, out: make([]outcome, len(reqs)), rids: d.rids(len(reqs))}
	ph.rec = d.rec.begin(ph.rids[0], len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				sleepUntil(start.Add(due[i]))
				sent := time.Now()
				ok, done := d.send(ctx, reqs[i], ph.rids[i])
				ph.out[i] = outcome{due: int64(due[i]), sent: int64(sent.Sub(start)),
					done: int64(done.Sub(start)), ok: ok}
				d.rec.client(ph.rids[i], sent, done)
			}
		}()
	}
	wg.Wait()
	ph.finish(time.Since(start))
	return ph
}

// closedLoop sends reqs one at a time, each as soon as the previous
// reply is read.
func (d *generator) closedLoop(ctx context.Context, reqs []request) *phase {
	ph := &phase{reqs: reqs, out: make([]outcome, 0, len(reqs)), rids: d.rids(len(reqs))}
	ph.rec = d.rec.begin(ph.rids[0], len(reqs))
	start := time.Now()
	prev := start
	for i, req := range reqs {
		if ctx.Err() != nil {
			break
		}
		sent := time.Now()
		ok, done := d.send(ctx, req, ph.rids[i])
		ph.out = append(ph.out, outcome{due: int64(prev.Sub(start)), sent: int64(sent.Sub(start)),
			done: int64(done.Sub(start)), ok: ok})
		d.rec.client(ph.rids[i], sent, done)
		prev = done
	}
	ph.reqs, ph.rids = reqs[:len(ph.out)], ph.rids[:len(ph.out)]
	ph.finish(time.Since(start))
	return ph
}

func (d *generator) rids(n int) []int64 {
	base := d.rid.Add(int64(n)) - int64(n)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = base + int64(i)
	}
	return ids
}

func (ph *phase) finish(elapsed time.Duration) {
	ph.elapsed = elapsed
	ph.attempts = len(ph.out)
	for _, o := range ph.out {
		if !o.ok {
			ph.failed++
		}
	}
}

// latencies returns the successful requests' latencies in milliseconds.
func (ph *phase) latencies() []float64 {
	var xs []float64
	for _, o := range ph.out {
		if o.ok {
			xs = append(xs, float64(o.latency())/1e6)
		}
	}
	return xs
}

// lagP99 is how late the generator sent requests at the 99th
// percentile: for an open loop, the median over windows (see windowed);
// for the closed loop, over the whole phase.
func (ph *phase) lagP99(rate float64) float64 {
	if rate == 0 {
		return quantile(ph.lags(), 0.99)
	}
	v, _ := ph.windowedLag(windowAt(rate, ph.elapsed), 0.99)
	return v
}

// windowAt is the window length for latency percentiles at an offered
// rate over a phase of span: long enough to hold 1000 requests, so each
// window's p99 has ten samples beyond it, but short enough that the
// phase has at least five windows to take the median of, and at least
// half a second.
func windowAt(rate float64, span time.Duration) time.Duration {
	return max(500*time.Millisecond, min(time.Duration(1000/rate*float64(time.Second)), span/5))
}

// windowed splits the phase into windows of width by due time and
// returns the median over windows of each window's q-quantile latency in
// milliseconds, and the number of windows. A failed request counts as
// infinitely late. A disturbance that hits a few windows moves the
// result little.
func (ph *phase) windowed(width time.Duration, q float64) (float64, int) {
	return ph.windowedOf(width, q, func(o outcome) float64 {
		if !o.ok {
			return math.Inf(1)
		}
		return float64(o.latency()) / 1e6
	})
}

// windowedLag is windowed for how late requests were sent.
func (ph *phase) windowedLag(width time.Duration, q float64) (float64, int) {
	return ph.windowedOf(width, q, func(o outcome) float64 { return float64(o.lag()) / 1e6 })
}

func (ph *phase) windowedOf(width time.Duration, q float64, ms func(outcome) float64) (float64, int) {
	var per [][]float64
	for _, o := range ph.out {
		w := int(o.due / int64(width))
		for len(per) <= w {
			per = append(per, nil)
		}
		per[w] = append(per[w], ms(o))
	}
	var qs []float64
	for _, xs := range per {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs), len(qs)
}

// lags returns how late each request was sent, in milliseconds.
func (ph *phase) lags() []float64 {
	xs := make([]float64, len(ph.out))
	for i, o := range ph.out {
		xs[i] = float64(o.lag()) / 1e6
	}
	return xs
}

// sustains reports whether the phase met the latency limit: its p99,
// the median over windows of window, within it with failures counted as
// misses, and a backlog that did not grow (the last quarter of the
// requests went out, at the median, less than the limit late).
func (ph *phase) sustains(window time.Duration) bool {
	if len(ph.out) == 0 {
		return false
	}
	if p99, _ := ph.windowed(window, 0.99); p99 > float64(latencyLimit)/1e6 {
		return false
	}
	tail := ph.lags()[len(ph.out)*3/4:]
	return median(tail) < float64(latencyLimit)/1e6
}

// sleepUntil blocks until t. The runtime's timers wake an idle program
// up to a millisecond late, which would swamp sub-millisecond latencies,
// so only the wait up to 1.5 ms before t uses them. The rest is a
// nanosleep, which overshoots by the kernel's timer slack (~50µs) that
// sleepUntil subtracts. A goroutine in nanosleep keeps its scheduler
// slot until the runtime takes it back, which is why it covers only the
// last stretch. Two alternatives measured worse at 2000 req/s: a timerfd
// read through the network poller woke later, and one pacer handing
// requests to the workers over a channel added ~0.5 ms per handoff.
func sleepUntil(t time.Time) {
	const coarse, slack = 1500 * time.Microsecond, 60 * time.Microsecond
	if d := time.Until(t) - coarse; d > 0 {
		time.Sleep(d)
	}
	d := time.Until(t) - slack
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// searchMaxRate finds the highest offered rate the stack sustains
// (phase.sustains), given whether it sustained the reference rate: it
// moves the rate by a quarter per step, up from a sustained rate or down
// from an unsustained one, until it brackets the limit, then bisects the
// bracket. Each step is a fresh Poisson schedule of stepLen, judged on
// its whole-step p99 (stepLen must hold 1000 requests). A failed step is
// run once more before the rate counts as failed, so one stall of a
// shared host does not end the search early. No step starts once budget
// has passed, which bounds a run's length on a slow host. It returns the
// highest sustained rate (0 if none), every step tried, and whether the
// budget cut the search short.
func (d *generator) searchMaxRate(ctx context.Context, w *workload, seed uint64, refOK bool, stepLen time.Duration, bisections int, budget time.Duration) (float64, []rateStep, bool) {
	deadline := time.Now().Add(budget)
	more := func() bool { return ctx.Err() == nil && time.Now().Before(deadline) }
	r := rng(seed, 10)
	var steps []rateStep
	step := func(rate float64) bool {
		n := int(rate * stepLen.Seconds())
		reqs := make([]request, n)
		for i := range reqs {
			reqs[i] = w.next()
		}
		ph := d.openLoop(ctx, reqs, poissonSchedule(r, rate, n))
		ok := ph.sustains(stepLen)
		p99, _ := ph.windowed(stepLen, 0.99)
		steps = append(steps, rateStep{rate: rate, p99: p99, attempts: ph.attempts, failed: ph.failed, ok: ok})
		return ok
	}
	try := func(rate float64) bool { return step(rate) || step(rate) }
	lo, hi := 0.0, w.rate
	if refOK {
		lo, hi = w.rate, 0
	}
	for lo == 0 && more() {
		rate := hi / 1.25
		if rate < w.rate/64 {
			return 0, steps, false
		}
		if try(rate) {
			lo = rate
		} else {
			hi = rate
		}
	}
	for hi == 0 && more() {
		rate := lo * 1.25
		if rate > 64*w.rate {
			return lo, steps, false
		}
		if try(rate) {
			lo = rate
		} else {
			hi = rate
		}
	}
	for i := 0; i < bisections; i++ {
		if !more() {
			return lo, steps, true
		}
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, steps, lo == 0 || hi == 0
}

type rateStep struct {
	rate             float64
	p99              float64
	attempts, failed int
	ok               bool
}
