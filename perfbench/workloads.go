package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"krak/pkg/krak"
)

// op is the serving endpoint a request drives.
type op int

const (
	opPredict op = iota
	opSimulate
)

func (o op) path() string {
	if o == opSimulate {
		return "/v1/simulate"
	}
	return "/v1/predict"
}

// request is one generated input: the wire body, the replicas' canonical
// cache key for it, and what the oracle and the mirror pass need to
// evaluate it in process.
type request struct {
	op       op
	deck     string
	pes      int
	model    string // predict only
	scenario int    // mesh-cold scenario index; -1 elsewhere
	key      string
	body     []byte
}

// quickSpec is the machine every replica resolves a request to: the
// request names none, and the replicas run in quick mode.
var quickSpec = func() krak.MachineSpec {
	ms, err := krak.MachineSpec{}.Resolved()
	if err != nil {
		panic(err)
	}
	ms.Quick = true
	return ms.Normalized()
}()

func predictReq(deck string, pes int, model string) request {
	wire := krak.PredictRequest{Deck: deck, PEs: pes, Model: model}
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err)
	}
	wire.Machine = quickSpec
	return request{op: opPredict, deck: deck, pes: pes, model: model, scenario: -1,
		key: wire.CanonicalKey(), body: body}
}

func simulateReq(deck string, pes int) request {
	wire := krak.SimulateRequest{Deck: deck, PEs: pes}
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err)
	}
	wire.Machine = quickSpec
	return request{op: opSimulate, deck: deck, pes: pes, scenario: -1,
		key: wire.CanonicalKey(), body: body}
}

// quickCells is the cell count of each quick-mode standard deck.
var quickCells = map[string]int{"small": 3200, "medium": 51200, "large": 51200}

// minCellsPerPE keeps every generated scenario at ≥16 cells per PE.
const minCellsPerPE = 16

// calPEs are the processor counts the mesh-specific model's deck
// calibration partitions at; warm-up computes them, so cold scenarios
// avoid them.
var calPEs = []int{2, 8, 32}

// workload is one traffic mix. Requests come from next in a fixed order
// that every phase of a run continues, so a later phase never replays an
// earlier phase's keys unless the workload means it to.
type workload struct {
	name string
	// rate is the reference offered load of an open-loop workload in
	// requests per second; 0 marks a closed loop with one client.
	rate float64
	// warmReplicas go to every replica directly and warmGateway through
	// the gateway, before any timing.
	warmReplicas []request
	warmGateway  []request
	// hits is what every timed request should do in the replicas'
	// response LRU: hit (true) or miss (false).
	hits bool
	next func() request
	// perSecond is how many rounds of the closed loop's list take a
	// second on the reference host; a closed-loop phase of d takes
	// d·perSecond rounds, so every run does the same work whatever the
	// host's speed.
	perSecond float64
	take      func(rounds int) []request
}

// Reference rates, at most about half of each open-loop workload's
// max_rate_rps on a 2-CPU host (see README.md for why these two). They
// are fixed so that a change to the serving stack shows as a latency
// change at the same offered load.
const (
	serveHotRate    = 2000
	predictColdRate = 200
)

var workloadNames = []string{"serve-hot", "predict-cold", "mesh-cold"}

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "serve-hot":
		return serveHot(seed), nil
	case "predict-cold":
		return predictCold(seed), nil
	case "mesh-cold":
		return meshCold(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// serveHot is 24 warm keys, Zipf-skewed: predicts (general models) take
// 80% of requests and simulates 20%, each over small/medium/large decks
// and a few PE counts. The seed decides which key holds which rank.
func serveHot(seed uint64) *workload {
	var preds, sims []request
	for _, deck := range []string{"small", "medium", "large"} {
		for _, pe := range []int{8, 32, 128} {
			for _, model := range []string{"general-homo", "general-het"} {
				preds = append(preds, predictReq(deck, pe, model))
			}
		}
		for _, pe := range []int{16, 64} {
			sims = append(sims, simulateReq(deck, pe))
		}
	}
	r := rng(seed, 1)
	r.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	r.Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
	zp := rand.NewZipf(r, 1.2, 1, uint64(len(preds)-1))
	zs := rand.NewZipf(r, 1.2, 1, uint64(len(sims)-1))
	return &workload{
		name:        "serve-hot",
		rate:        serveHotRate,
		warmGateway: append(slices.Clone(preds), sims...),
		hits:        true,
		next: func() request {
			if r.Float64() < 0.8 {
				return preds[zp.Uint64()]
			}
			return sims[zs.Uint64()]
		},
	}
}

// predictCold cycles a seeded permutation of every general-model predict
// over the three quick decks, every PE from 2 up to 16 cells per PE, both
// model variants: 13,194 distinct keys. A key returns only after ~6,600
// others have passed each replica, far more than its 1024-entry LRU
// holds, so every request misses.
func predictCold(seed uint64) *workload {
	var keys []request
	for _, deck := range []string{"small", "medium", "large"} {
		for pe := 2; pe <= quickCells[deck]/minCellsPerPE; pe++ {
			for _, model := range []string{"general-homo", "general-het"} {
				keys = append(keys, predictReq(deck, pe, model))
			}
		}
	}
	r := rng(seed, 2)
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var warm []request
	for _, deck := range []string{"small", "medium", "large"} {
		// PE 1 is outside the timed key set.
		warm = append(warm, predictReq(deck, 1, "general-homo"))
	}
	i := 0
	return &workload{
		name:         "predict-cold",
		rate:         predictColdRate,
		warmReplicas: warm,
		next: func() request {
			req := keys[i%len(keys)]
			i++
			return req
		},
	}
}

// meshRounds bounds the mesh-cold scenario list; a run at today's speed
// uses well under a quarter of it.
const meshRounds = 48

// meshFollowLag is how many requests after its simulate a scenario's
// mesh-specific predict is sent.
const meshFollowLag = 3

// meshRoundsPerSecond is how many mesh-cold rounds (12 scenarios, a
// simulate and its follow-up each) the stack completes per second on the
// reference host.
const meshRoundsPerSecond = 0.3

// meshStrata split each deck's PE range into equal log-width bands.
var meshStrata = map[string]int{"small": 4, "medium": 8}

// meshCold is a closed loop over distinct (deck, PE) scenarios on the
// small and medium quick decks, PE log-uniform from 3 up to 16 cells per
// PE. The PE range of each deck is cut into bands of equal log width,
// and every round of the list takes one fresh PE from each band: in
// round r, the band's PE sits at log-position frac(1/2 + r/φ), a
// golden-ratio sequence that covers the band evenly from the first
// rounds on. A phase runs whole rounds. The scenario set is the same for
// every seed, so every run does the same work and routes it alike (a
// follow-up finds its partition only if the ring sends it to the
// simulate's replica, which depends on the key); the seed orders the
// scenarios of each round. Each scenario is asked first as a simulate
// and, meshFollowLag requests later, as a mesh-specific predict that may
// reuse its partition. A phase ends with the follow-ups still due.
func meshCold(seed uint64) *workload {
	r := rng(seed, 3)
	type band struct {
		deck   string
		lo, hi float64
		top    bool // the deck's last band, which includes hi
	}
	var bands []band
	for _, deck := range []string{"medium", "small"} {
		lo, hi := 3.0, float64(quickCells[deck]/minCellsPerPE)
		n := meshStrata[deck]
		for k := 0; k < n; k++ {
			bands = append(bands, band{deck: deck,
				lo:  lo * math.Pow(hi/lo, float64(k)/float64(n)),
				hi:  lo * math.Pow(hi/lo, float64(k+1)/float64(n)),
				top: k == n-1})
		}
	}
	used := map[string]bool{}
	// pick returns band b's PE for round r: the nearest free integer to
	// its golden-ratio position, or 0 once the band has none left.
	pick := func(b band, round int) int {
		pos := math.Mod(0.5+float64(round)*0.6180339887498949, 1)
		lo, hi := int(math.Ceil(b.lo)), int(math.Ceil(b.hi))-1
		if b.top {
			hi = int(b.hi)
		}
		want := min(max(int(math.Round(b.lo*math.Pow(b.hi/b.lo, pos))), lo), hi)
		for d := 0; d <= hi-lo; d++ {
			for _, pe := range []int{want - d, want + d} {
				key := fmt.Sprintf("%s/%d", b.deck, pe)
				if pe >= lo && pe <= hi && !slices.Contains(calPEs, pe) && !used[key] {
					used[key] = true
					return pe
				}
			}
		}
		return 0
	}
	var rounds [][]request
	nscen := 0
	for round := 0; round < meshRounds; round++ {
		var sims []request
		for _, b := range bands {
			if pe := pick(b, round); pe != 0 {
				sims = append(sims, simulateReq(b.deck, pe))
			}
		}
		r.Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
		for k := range sims {
			sims[k].scenario = nscen
			nscen++
		}
		rounds = append(rounds, sims)
	}
	var warm []request
	for _, deck := range []string{"small", "medium"} {
		// Warms the deck calibration, which partitions at calPEs.
		warm = append(warm, predictReq(deck, calPEs[0], "mesh-specific"))
	}
	next := 0
	return &workload{
		name:         "mesh-cold",
		warmReplicas: warm,
		perSecond:    meshRoundsPerSecond,
		take: func(n int) []request {
			var sims []request
			for ; n > 0; n-- {
				sims = append(sims, rounds[next%len(rounds)]...)
				next++
			}
			var reqs []request
			for k, sim := range sims {
				reqs = append(reqs, sim)
				if k >= meshFollowLag {
					reqs = append(reqs, meshFollow(sims[k-meshFollowLag]))
				}
			}
			for _, sim := range sims[max(len(sims)-meshFollowLag, 0):] {
				reqs = append(reqs, meshFollow(sim))
			}
			return reqs
		},
	}
}

// decks returns the decks the workload's requests name.
func (w *workload) decks() []string {
	if w.name == "mesh-cold" {
		return []string{"small", "medium"}
	}
	return []string{"small", "medium", "large"}
}

func meshFollow(sim request) request {
	p := predictReq(sim.deck, sim.pes, "mesh-specific")
	p.scenario = sim.scenario
	return p
}

// poissonSchedule returns n due times at the given mean rate.
func poissonSchedule(r *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += r.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}
