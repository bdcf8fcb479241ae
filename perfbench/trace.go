package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// traced measures the per-layer metrics. It runs the workload for half
// the time untraced and half traced, at the same offered load, so the
// difference bounds what the spans cost; then it replays the traced
// requests in the mirror pass.
func (b *bench) traced(ctx context.Context, st *stack, gen *generator) ([]*phase, error) {
	half := b.cfg.seconds / 2
	plain := b.timedPhase(ctx, gen, half, 30)
	b.count(plain)
	var ph *phase
	var before, after snapshot
	err := b.checkedPhase(func() (err error) {
		if before, err = b.snap(ctx, st); err != nil {
			return err
		}
		b.rec.trace.Store(true)
		ph = b.timedPhase(ctx, gen, half, 31)
		b.rec.trace.Store(false)
		after, err = b.snap(ctx, st)
		b.count(ph)
		return err
	}, func() error { return b.selfCheck(ph, before, after) })
	if err != nil {
		return nil, err
	}

	spans := b.tierSpans(ph)
	if err := nesting(spans); err != nil {
		return nil, err
	}
	var tier tierStats
	tier.measure(ph)
	facade, err := b.mirrorPass(ph, &spans)
	if err != nil {
		return nil, err
	}

	b.put("loadgen.lag_ms_p99", "ms", ph.lagP99(b.wl.rate), fmt.Sprintf("n=%d", len(ph.out)))
	b.put("client.transport_us_p50", "us", median(tier.transport), fmt.Sprintf("n=%d", len(tier.transport)))
	b.put("gateway.self_us_p50", "us", median(tier.gatewaySelf), fmt.Sprintf("n=%d", len(tier.gatewaySelf)))
	b.put("gateway.attempts_per_req", "ratio", tier.attempts, "")
	b.put("gateway.replica_share_max", "ratio", tier.shareMax, "")
	g := after.gateway.sub(before.gateway)
	b.put("gateway.degraded_count", "count", g["krak_gateway_degraded_total"], "")

	busy := durationsUS(tier.server)
	self := make([]float64, 0, len(busy))
	for i, d := range tier.server {
		if !b.wl.hits {
			f, ok := facade[tier.rids[i]]
			if !ok {
				continue // not mirrored
			}
			d -= f
		}
		self = append(self, float64(d)/1e3)
	}
	b.put("server.busy_us_p50", "us", median(busy), fmt.Sprintf("n=%d", len(busy)))
	b.put("server.self_us_p50", "us", median(self), fmt.Sprintf("n=%d, busy minus the mirrored façade+render on misses", len(self)))
	r := after.replicas.sub(before.replicas)
	hits := r["krak_response_cache_hits_total"]
	lookups := hits + r["krak_response_cache_misses_total"] + r["krak_response_cache_coalesced_total"]
	b.put("server.lru_hit_ratio", "ratio", hits/max(lookups, 1), fmt.Sprintf("%.0f of %.0f", hits, lookups))
	batches := r["krak_batches_total"]
	b.put("server.batch_jobs_per_batch", "ratio", r["krak_batched_jobs_total"]/max(batches, 1), fmt.Sprintf("%.0f batches", batches))
	b.put("server.rejected_count", "count", r["krak_admission_rejected_total"], "")
	scen := scenarios(ph)
	b.put("server.partition_computes_per_scenario", "ratio", r["krak_partition_computes_total"]/max(float64(scen), 1),
		fmt.Sprintf("%.0f computes over %d (deck, PE) scenarios", r["krak_partition_computes_total"], scen))

	b.putLayer(spans, "krak.predict_us_p50", "krak.predict", "us", 0.5, timed)
	b.putLayer(spans, "krak.simulate_ms_p50", "krak.simulate", "ms", 0.5, timed)
	b.putLayer(spans, "render.json_us_p50", "render.json", "us", 0.5, timed)
	b.putLayer(spans, "artifacts.partition_ms_p50", "artifacts.partition", "ms", 0.5, cold)
	b.putLayer(spans, "artifacts.partition_ms_p90", "artifacts.partition", "ms", 0.9, cold)
	b.putLayer(spans, "artifacts.summary_ms_p50", "artifacts.summary", "ms", 0.5, cold)
	b.putLayer(spans, "artifacts.deck_ms", "artifacts.deck", "ms", 0.5, setUp)
	b.putLayer(spans, "artifacts.graph_ms", "artifacts.graph", "ms", 0.5, setUp)
	b.putLayer(spans, "cluster.simulate_ms_p50", "cluster.simulate", "ms", 0.5, timed)
	b.putLayer(spans, "core.general_us_p50", "core.general", "us", 0.5, timed)
	b.putLayer(spans, "core.mesh_specific_us_p50", "core.mesh_specific", "us", 0.5, timed)
	b.putLayer(spans, "calib.contrived_ms", "calib.contrived", "ms", 0.5, setUp)
	b.putLayer(spans, "calib.deck_ms", "calib.deck", "ms", 0.5, setUp)
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
	}
	for _, name := range spanNames {
		b.put(name+".count", "count", float64(counts[name]), "")
	}

	plainP50, tracedP50 := median(plain.latencies()), median(ph.latencies())
	b.put("trace.overhead_pct", "%", 100*(tracedP50-plainP50)/plainP50,
		fmt.Sprintf("latency p50 traced %.4f ms vs untraced %.4f ms", tracedP50, plainP50))

	if b.cfg.spansPath != "" {
		if err := writeSpans(b.cfg.spansPath, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(b.out, "spans %d written to %s\n", len(spans), b.cfg.spansPath)
	}
	return []*phase{plain, ph}, nil
}

// tierSpans turns the traced phase's windows into client → gateway →
// server spans.
func (b *bench) tierSpans(ph *phase) []span {
	var spans []span
	p := ph.rec
	for i, rid := range ph.rids {
		if !ph.out[i].ok {
			continue
		}
		spans = append(spans,
			span{Name: "client", RID: rid, Start: p.client[i].start.Load(), End: p.client[i].end.Load()},
			span{Name: "gateway", Parent: "client", RID: rid, Start: p.gateway[i].start.Load(), End: p.gateway[i].end.Load()},
			span{Name: "server", Parent: "gateway", RID: rid,
				Start: p.server[i].start.Load(), End: p.server[i].end.Load()})
	}
	return spans
}

// nesting checks that every span of the load lies inside its parent.
func nesting(spans []span) error {
	type key struct {
		name string
		rid  int64
	}
	byKey := map[key]span{}
	for _, s := range spans {
		byKey[key{s.Name, s.RID}] = s
	}
	for _, s := range spans {
		if s.Name != "gateway" && s.Name != "server" {
			continue
		}
		p, ok := byKey[key{s.Parent, s.RID}]
		if !ok {
			return fmt.Errorf("trace: %s span of request %d has no %s span", s.Name, s.RID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End || s.Start == 0 {
			return fmt.Errorf("trace: %s span [%d,%d] of request %d is not inside its %s span [%d,%d]",
				s.Name, s.Start, s.End, s.RID, s.Parent, p.Start, p.End)
		}
	}
	return nil
}

// tierStats are the per-request tier measurements of a traced phase.
type tierStats struct {
	rids        []int64
	server      []time.Duration
	transport   []float64 // client − gateway, µs
	gatewaySelf []float64 // gateway − server, µs
	attempts    float64   // mean replica attempts per request
	shareMax    float64   // the busiest replica's share of requests
}

func (t *tierStats) measure(ph *phase) {
	p := ph.rec
	perReplica := make([]int, numReplicas)
	tries := 0
	for i, rid := range ph.rids {
		tries += p.attempts(i)
		if r := p.replicaOf(i); r >= 0 {
			perReplica[r]++
		}
		if !ph.out[i].ok {
			continue
		}
		c, g, s := p.client[i].dur(), p.gateway[i].dur(), p.server[i].dur()
		t.rids = append(t.rids, rid)
		t.server = append(t.server, s)
		t.transport = append(t.transport, float64(c-g)/1e3)
		t.gatewaySelf = append(t.gatewaySelf, float64(g-s)/1e3)
	}
	n := max(len(ph.rids), 1)
	t.attempts = float64(tries) / float64(n)
	t.shareMax = float64(slices.Max(perReplica)) / float64(n)
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// scenarios counts the distinct (deck, PE) pairs a phase asked to
// partition: its simulates and mesh-specific predicts.
func scenarios(ph *phase) int {
	seen := map[string]bool{}
	for _, req := range ph.reqs {
		if req.op == opSimulate || req.model == "mesh-specific" {
			seen[fmt.Sprintf("%s/%d", req.deck, req.pes)] = true
		}
	}
	return len(seen)
}

// spanFilter picks the spans a layer metric is computed over: the timed
// requests' (or the probes standing in for them), the cold artifact
// computations, or the mirrors' set-up.
type spanFilter func(span) bool

var (
	timed spanFilter = func(s span) bool { return s.RID >= 0 || s.Probe }
	cold  spanFilter = func(s span) bool { return s.Cold }
	setUp spanFilter = func(s span) bool { return s.RID == -1 }
)

// putLayer reports the q-quantile of a layer's span durations. It uses
// the spans of the workload's own requests; where they never reach the
// layer, it falls back to the off-path probe spans and says so.
func (b *bench) putLayer(spans []span, metricName, spanName, unit string, q float64, keep spanFilter) {
	var own, probe []float64
	scale := map[string]float64{"us": 1e3, "ms": 1e6}[unit]
	for _, s := range spans {
		switch {
		case s.Name != spanName || !keep(s):
		case s.Probe:
			probe = append(probe, float64(s.dur())/scale)
		default:
			own = append(own, float64(s.dur())/scale)
		}
	}
	xs, note := own, fmt.Sprintf("n=%d", len(own))
	if len(own) == 0 {
		xs, note = probe, fmt.Sprintf("n=%d off-path probes: the workload does not reach this layer", len(probe))
	}
	v := quantile(xs, q)
	if math.IsNaN(v) {
		v, note = 0, "no spans"
	}
	b.put(metricName, unit, v, note)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRouting prints a digest of the key → replica assignment the
// phases saw, so two runs can show they routed alike.
func (b *bench) printRouting(phases []*phase) {
	assign := map[string]int{}
	for _, ph := range phases {
		for i, req := range ph.reqs {
			if r := ph.rec.replicaOf(i); r >= 0 {
				assign[req.key] = r
			}
		}
	}
	keys := make([]string, 0, len(assign))
	for k := range assign {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := sha256.New()
	share := make([]int, numReplicas)
	for _, k := range keys {
		fmt.Fprintf(h, "%s\t%d\n", k, assign[k])
		share[assign[k]]++
	}
	fmt.Fprintf(b.out, "routing digest %x over %d keys, keys per replica %v\n", h.Sum(nil)[:8], len(keys), share)
}
