package main

import (
	"fmt"
	"slices"
	"time"

	"krak/internal/cluster"
	"krak/internal/core"
	"krak/internal/experiments"
	"krak/internal/mesh"
	"krak/internal/partition"
)

// span is one timed interval at a layer boundary. Spans of one request
// share its rid; Parent names the enclosing span of the same rid. The
// client, gateway and server spans come from the traced load; the layer
// spans below the server come from the mirror pass, which replays each
// request on bench-owned instances after the load and so runs on its own
// timeline (rid -1 marks mirror set-up, which belongs to no request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	RID    int64  `json:"rid"`
	// Cold marks an artifacts span that computed its artifact rather
	// than finding it cached; Probe marks a call made only to measure a
	// layer the workload's own requests never reach.
	Cold  bool `json:"cold,omitempty"`
	Probe bool `json:"probe,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// mirror is one replica's stand-in for the mirror pass: a pkg/krak
// machine for the façade and render calls, and an experiments
// environment for the calls into the layers under it, both configured as
// a quick-mode replica's machine is. Each replica gets its own mirror and
// each timed request is replayed on the mirror of the replica that
// served it, so both see the cache state that replica saw.
type mirror struct {
	facade *referencer
	env    *experiments.Env
	pr     partition.Partitioner
	summed map[string]bool // (deck, PE) pairs this mirror has summarized
	spans  *[]span
	base   time.Time
}

func newMirror(spans *[]span, base time.Time) (*mirror, error) {
	rf, err := newReferencer()
	if err != nil {
		return nil, err
	}
	env := experiments.NewQuickEnv()
	return &mirror{facade: rf, env: env, pr: partition.NewMultilevel(env.Seed),
		summed: map[string]bool{}, spans: spans, base: base}, nil
}

func (mr *mirror) emit(name, parent string, rid int64, start, end time.Time, cold, probe bool) {
	*mr.spans = append(*mr.spans, span{Name: name, Parent: parent, RID: rid,
		Start: int64(start.Sub(mr.base)), End: int64(end.Sub(mr.base)), Cold: cold, Probe: probe})
}

var deckSizes = map[string]mesh.StandardSize{"small": mesh.Small, "medium": mesh.Medium, "large": mesh.Large}

// setUp builds, cold and timed, what the replicas build before serving a
// workload's decks: each deck, its dual graph and its deck calibration,
// and the contrived calibration.
func (mr *mirror) setUp(decks []string) error {
	t := time.Now()
	if _, err := mr.env.ContrivedCalibration(); err != nil {
		return err
	}
	mr.emit("calib.contrived", "", -1, t, time.Now(), true, false)
	for _, name := range decks {
		t := time.Now()
		d, err := mr.env.Deck(deckSizes[name])
		if err != nil {
			return err
		}
		t1 := time.Now()
		mr.emit("artifacts.deck", "", -1, t, t1, true, false)
		if _, err := mr.env.Graph(d); err != nil {
			return err
		}
		t2 := time.Now()
		mr.emit("artifacts.graph", "", -1, t1, t2, true, false)
		if _, err := mr.env.DeckCalibration(d, calPEs); err != nil {
			return err
		}
		mr.emit("calib.deck", "", -1, t2, time.Now(), true, false)
	}
	return nil
}

// layers replays req's path through the layers under the façade: the
// partition and summary (artifacts), then the simulator (cluster) or the
// analytic model (core).
func (mr *mirror) layers(req request, rid int64, probe bool) error {
	d, err := mr.env.Deck(deckSizes[req.deck])
	if err != nil {
		return err
	}
	if req.op == opPredict && req.model != "mesh-specific" {
		cal, err := mr.env.ContrivedCalibration()
		if err != nil {
			return err
		}
		mode := core.Homogeneous
		if req.model == "general-het" {
			mode = core.Heterogeneous
		}
		t := time.Now()
		if _, err := core.NewGeneral(cal, mr.env.Net, mode).Predict(d.Mesh.NumCells(), req.pes); err != nil {
			return err
		}
		mr.emit("core.general", "server", rid, t, time.Now(), false, probe)
		return nil
	}
	st := mr.env.Store()
	computes := st.PartitionComputes()
	t := time.Now()
	if _, err := st.Vector(d, mr.pr, mr.env.Seed, req.pes); err != nil {
		return err
	}
	t1 := time.Now()
	mr.emit("artifacts.partition", "server", rid, t, t1, st.PartitionComputes() > computes, probe)
	sum, err := st.Summary(d, mr.pr, mr.env.Seed, req.pes)
	if err != nil {
		return err
	}
	t2 := time.Now()
	pair := fmt.Sprintf("%s/%d", req.deck, req.pes)
	mr.emit("artifacts.summary", "server", rid, t1, t2, !mr.summed[pair], probe)
	mr.summed[pair] = true
	if req.op == opSimulate {
		cfg := cluster.Config{Net: mr.env.Net, Costs: mr.env.Costs}
		if _, _, err := cluster.SimulateIterations(sum, cfg, mr.env.Repeats); err != nil {
			return err
		}
		mr.emit("cluster.simulate", "server", rid, t2, time.Now(), false, probe)
		return nil
	}
	cal, err := mr.env.DeckCalibration(d, calPEs)
	if err != nil {
		return err
	}
	t3 := time.Now()
	if _, err := core.NewMeshSpecific(cal, mr.env.Net).Predict(sum); err != nil {
		return err
	}
	mr.emit("core.mesh_specific", "server", rid, t3, time.Now(), false, probe)
	return nil
}

// krak replays req through the pkg/krak Session and renders the result,
// the two calls a replica makes on a response-cache miss. It returns
// their combined duration.
func (mr *mirror) krak(req request, rid int64, probe bool) (time.Duration, error) {
	t := time.Now()
	res, err := mr.facade.result(req)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	name := "krak.predict"
	if req.op == opSimulate {
		name = "krak.simulate"
	}
	mr.emit(name, "server", rid, t, t1, false, probe)
	if _, err := render(res); err != nil {
		return 0, err
	}
	t2 := time.Now()
	mr.emit("render.json", name, rid, t1, t2, false, probe)
	return t2.Sub(t), nil
}

// krakWarm replays a warm-up request through the façade untimed, so the
// mirror's façade caches match the replica's before the timed requests.
func (mr *mirror) krakWarm(req request) error {
	_, err := mr.facade.result(req)
	return err
}

// probeRID marks the spans of off-path probes.
const probeRID = -2

// mirrorPass replays the traced phase's requests, each on the mirror of
// the replica that served it: first through the layers under the façade,
// then through the façade and render. Mirrors first build the workload's
// set-up artifacts (timed) and replay its warm-up (untimed for the
// façade), so each starts in its replica's cache state. Layers the
// workload never reaches are measured by probes. It reports
// artifacts.live_mb_per_scenario and returns each mirrored request's
// façade+render time by rid.
func (b *bench) mirrorPass(ph *phase, spans *[]span) (map[int64]time.Duration, error) {
	// Room for every span the pass emits, so appending allocates nothing
	// between the two heap readings below.
	grown := make([]span, len(*spans), len(*spans)+8*len(ph.reqs)+4096)
	copy(grown, *spans)
	*spans = grown
	mirrors := make([]*mirror, numReplicas)
	for i := range mirrors {
		mr, err := newMirror(spans, b.rec.base)
		if err != nil {
			return nil, err
		}
		if err := mr.setUp(b.wl.decks()); err != nil {
			return nil, err
		}
		mirrors[i] = mr
	}
	replay := b.mirrored(ph)
	warm := append(slices.Clone(b.wl.warmReplicas), b.wl.warmGateway...)
	probes := probeRequests(ph)

	heap0, computes0 := liveHeapMB(), partitionComputes(mirrors)
	pairs := map[string]bool{}
	note := func(req request) {
		if req.op == opSimulate || req.model == "mesh-specific" {
			pairs[fmt.Sprintf("%s/%d", req.deck, req.pes)] = true
		}
	}
	for _, mr := range mirrors {
		for _, req := range warm {
			if err := mr.layers(req, -1, false); err != nil {
				return nil, err
			}
			note(req)
		}
	}
	for _, i := range replay {
		if err := mirrors[ph.rec.replicaOf(i)].layers(ph.reqs[i], ph.rids[i], false); err != nil {
			return nil, err
		}
		note(ph.reqs[i])
	}
	if lacks(*spans, ownTimed, "cluster.simulate", "core.general", "core.mesh_specific") {
		for _, req := range probes {
			if err := mirrors[0].layers(req, probeRID, true); err != nil {
				return nil, err
			}
			note(req)
		}
	}
	heap1, computes1 := liveHeapMB(), partitionComputes(mirrors)
	b.put("artifacts.live_mb_per_scenario", "MB", (heap1-heap0)/float64(max(len(pairs), 1)),
		fmt.Sprintf("%.2f MB over %d (deck, PE) scenarios, %d partition computes", heap1-heap0, len(pairs), computes1-computes0))

	facade := make(map[int64]time.Duration, len(replay))
	for _, mr := range mirrors {
		for _, req := range warm {
			if err := mr.krakWarm(req); err != nil {
				return nil, err
			}
		}
	}
	for _, i := range replay {
		d, err := mirrors[ph.rec.replicaOf(i)].krak(ph.reqs[i], ph.rids[i], false)
		if err != nil {
			return nil, err
		}
		facade[ph.rids[i]] = d
	}
	if lacks(*spans, ownTimed, "krak.predict", "krak.simulate") {
		for _, req := range probes {
			if _, err := mirrors[0].krak(req, probeRID, true); err != nil {
				return nil, err
			}
		}
	}
	return facade, nil
}

// mirrored returns the indexes of the traced requests the mirror pass
// replays: all of them, except on mesh-cold, where a seeded sample of
// b.cfg.sample scenarios keeps the pass short.
func (b *bench) mirrored(ph *phase) []int {
	var idx []int
	sample := b.scenarioSample(ph.reqs)
	for i, req := range ph.reqs {
		if !ph.out[i].ok || ph.rec.replicaOf(i) < 0 {
			continue
		}
		if req.scenario >= 0 && !sample[req.scenario] {
			continue
		}
		idx = append(idx, i)
	}
	return idx
}

// scenarioSample picks b.cfg.sample of the mesh-cold scenarios in reqs.
func (b *bench) scenarioSample(reqs []request) map[int]bool {
	var ids []int
	for _, req := range reqs {
		if req.scenario >= 0 && !slices.Contains(ids, req.scenario) {
			ids = append(ids, req.scenario)
		}
	}
	r := rng(b.cfg.seed, 40)
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	pick := map[int]bool{}
	for _, id := range ids[:min(b.cfg.sample, len(ids))] {
		pick[id] = true
	}
	return pick
}

// ownTimed accepts the spans of the workload's own timed requests.
func ownTimed(s span) bool { return s.RID >= 0 }

// lacks reports whether any of the named layers has no span that keep
// accepts.
func lacks(spans []span, keep spanFilter, names ...string) bool {
	for _, name := range names {
		if !slices.ContainsFunc(spans, func(s span) bool { return s.Name == name && keep(s) }) {
			return true
		}
	}
	return false
}

// probeRequests are the off-path probes: a simulate, a mesh-specific and
// a general predict for each of up to four (deck, PE) pairs the phase
// asked about, at PE ≤ 128 so the probes stay cheap.
func probeRequests(ph *phase) []request {
	var probes []request
	seen := map[string]bool{}
	for _, req := range ph.reqs {
		pair := fmt.Sprintf("%s/%d", req.deck, req.pes)
		if req.pes > 128 || slices.Contains(calPEs, req.pes) || seen[pair] {
			continue
		}
		seen[pair] = true
		probes = append(probes, simulateReq(req.deck, req.pes),
			predictReq(req.deck, req.pes, "mesh-specific"), predictReq(req.deck, req.pes, "general-homo"))
		if len(seen) == 4 {
			break
		}
	}
	return probes
}

func partitionComputes(mirrors []*mirror) int64 {
	var n int64
	for _, mr := range mirrors {
		n += mr.env.Store().PartitionComputes()
	}
	return n
}
