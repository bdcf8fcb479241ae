package main

import (
	"sync/atomic"
	"time"
)

// recorder collects what the benchmark sees at the tier boundaries of
// each timed request, keyed by the rid query parameter the request
// carries. It always records which replica served a request and how many
// replica attempts it took (the routing digest, the replica shares and
// the self-checks need them); while trace is set it also records the
// client, gateway and replica spans. A slot is written only by the
// goroutine handling that request at that tier, through atomics, and
// read after the phase.
type recorder struct {
	base  time.Time
	trace atomic.Bool
	cur   atomic.Pointer[phaseRec]
}

// window is one span's bounds in nanoseconds since recorder.base.
type window struct{ start, end atomic.Int64 }

func (w *window) set(start, end int64) {
	w.start.Store(start)
	w.end.Store(end)
}

func (w *window) dur() time.Duration { return time.Duration(w.end.Load() - w.start.Load()) }

// phaseRec holds one phase's slots, indexed by rid - first.
type phaseRec struct {
	first   int64
	traced  bool
	replica []atomic.Int32 // 1 + index of the replica that served the first attempt
	tries   []atomic.Int32 // replica attempts seen
	client  []window
	gateway []window
	server  []window // the first attempt
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens the slots for rids first .. first+n-1.
func (r *recorder) begin(first int64, n int) *phaseRec {
	p := &phaseRec{first: first, traced: r.trace.Load(),
		replica: make([]atomic.Int32, n), tries: make([]atomic.Int32, n)}
	if p.traced {
		p.client = make([]window, n)
		p.gateway = make([]window, n)
		p.server = make([]window, n)
	}
	r.cur.Store(p)
	return p
}

func (r *recorder) slot(rid int64) (*phaseRec, int, bool) {
	p := r.cur.Load()
	if p == nil {
		return nil, 0, false
	}
	i := rid - p.first
	if i < 0 || i >= int64(len(p.replica)) {
		return nil, 0, false
	}
	return p, int(i), true
}

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.base)) }

func (r *recorder) client(rid int64, start, end time.Time) {
	if p, i, ok := r.slot(rid); ok && p.traced {
		p.client[i].set(r.ns(start), r.ns(end))
	}
}

func (r *recorder) gateway(rid int64, start, end time.Time) {
	if p, i, ok := r.slot(rid); ok && p.traced {
		p.gateway[i].set(r.ns(start), r.ns(end))
	}
}

func (r *recorder) server(rid int64, replica int, start, end time.Time) {
	p, i, ok := r.slot(rid)
	if !ok {
		return
	}
	if p.tries[i].Add(1) == 1 {
		p.replica[i].Store(int32(replica + 1))
		if p.traced {
			p.server[i].set(r.ns(start), r.ns(end))
		}
	}
}

// replicaOf returns the replica that served request i, or -1.
func (p *phaseRec) replicaOf(i int) int { return int(p.replica[i].Load()) - 1 }

// attempts returns how many replica attempts request i took.
func (p *phaseRec) attempts(i int) int { return int(p.tries[i].Load()) }
