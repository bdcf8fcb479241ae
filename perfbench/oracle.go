package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"krak/pkg/krak"
)

// checker is the correctness oracle. While the load runs it decodes every
// body with the schema-stamped krak.Result.UnmarshalJSON and keeps the
// SHA-256 of the first body seen per key; a later body for the same key
// must hash the same. After the timed phase, verify compares each kept
// digest with the digest of the in-process reference bytes, so a body
// passes only if it equals the reference byte for byte.
type checker struct {
	mu    sync.Mutex
	seen  map[string]*seenKey
	order []string // keys in first-seen order
}

type seenKey struct {
	req    request
	digest [32]byte
	count  int // bodies that matched the first
}

func newChecker() *checker { return &checker{seen: make(map[string]*seenKey)} }

// observe records one body for req's key and reports whether it decoded
// and agrees with the key's earlier bodies.
func (c *checker) observe(req request, body []byte) bool {
	var res krak.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return false
	}
	d := sha256.Sum256(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.seen[req.key]
	if !ok {
		s = &seenKey{req: req, digest: d}
		c.seen[req.key] = s
		c.order = append(c.order, req.key)
	} else if s.digest != d {
		return false
	}
	s.count++
	return true
}

// keys returns the requests the checker has seen, one per key, in
// first-seen order.
func (c *checker) keys() []request {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]request, len(c.order))
	for i, k := range c.order {
		out[i] = c.seen[k].req
	}
	return out
}

// verify compares the kept digests of the given keys with their reference
// bytes and returns how many accepted bodies turned out wrong.
func (c *checker) verify(refs map[string][]byte) (wrong int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, ref := range refs {
		s, ok := c.seen[key]
		if !ok {
			return 0, fmt.Errorf("oracle: reference for unseen key %s", key)
		}
		if sha256.Sum256(ref) != s.digest {
			wrong += s.count
		}
	}
	return wrong, nil
}

// referencer renders requests in process exactly as the CLI's --json and
// the replicas do: a pkg/krak result through json.MarshalIndent with a
// two-space indent plus a trailing newline. It owns one machine, so its
// artifact caches warm up across the requests it renders.
type referencer struct {
	m *krak.Machine
}

func newReferencer() (*referencer, error) {
	m, err := krak.NewMachine(quickSpec.Options()...)
	if err != nil {
		return nil, err
	}
	return &referencer{m: m}, nil
}

func (rf *referencer) result(req request) (*krak.Result, error) {
	var sc *krak.Scenario
	var err error
	if req.op == opSimulate {
		sc, err = krak.SimulateRequest{Deck: req.deck, PEs: req.pes}.Scenario()
	} else {
		sc, err = krak.PredictRequest{Deck: req.deck, PEs: req.pes, Model: req.model}.Scenario()
	}
	if err != nil {
		return nil, err
	}
	sess, err := krak.NewSession(rf.m, sc)
	if err != nil {
		return nil, err
	}
	if req.op == opSimulate {
		return sess.Simulate()
	}
	return sess.Predict()
}

func render(res *krak.Result) ([]byte, error) {
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func (rf *referencer) body(req request) ([]byte, error) {
	res, err := rf.result(req)
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", req.key, err)
	}
	return render(res)
}

// references renders every given request.
func (rf *referencer) references(reqs []request) (map[string][]byte, error) {
	refs := make(map[string][]byte, len(reqs))
	for _, req := range reqs {
		b, err := rf.body(req)
		if err != nil {
			return nil, err
		}
		refs[req.key] = b
	}
	return refs, nil
}

// selfTest feeds the oracle one corrupted copy of a reference body: a
// fresh checker must accept the body as served and then fail it against
// the reference. It proves, in every run, that the oracle is on.
func selfTest(req request, ref []byte) error {
	bad := append([]byte(nil), ref...)
	// Change the last digit 1-8 of the body, which sits in a number:
	// still valid JSON with a valid schema stamp, but a wrong answer.
	for i := len(bad) - 1; i >= 0; i-- {
		if bad[i] >= '1' && bad[i] <= '8' {
			bad[i]++
			break
		}
	}
	c := newChecker()
	if !c.observe(req, bad) {
		return fmt.Errorf("oracle self-test: corrupted body failed to decode; the test corrupts too much")
	}
	wrong, err := c.verify(map[string][]byte{req.key: ref})
	if err != nil {
		return err
	}
	if wrong != 1 {
		return fmt.Errorf("oracle self-test: a corrupted body for %s passed the oracle", req.key)
	}
	return nil
}

// verify renders the reference of every key the phases saw (on
// mesh-cold, of a seeded sample of scenarios), runs the oracle's
// self-test on one of them, and returns how many served bodies were
// wrong.
func (b *bench) verify() (int, error) {
	keys := b.check.keys()
	if len(keys) == 0 {
		return 0, fmt.Errorf("oracle: no response to check")
	}
	sample := b.scenarioSample(keys)
	var reqs []request
	for _, req := range keys {
		if req.scenario < 0 || sample[req.scenario] {
			reqs = append(reqs, req)
		}
	}
	rf, err := newReferencer()
	if err != nil {
		return 0, err
	}
	refs, err := rf.references(reqs)
	if err != nil {
		return 0, err
	}
	if err := selfTest(reqs[0], refs[reqs[0].key]); err != nil {
		return 0, err
	}
	wrong, err := b.check.verify(refs)
	if err != nil {
		return 0, err
	}
	checked := 0
	for _, req := range reqs {
		checked += b.check.seen[req.key].count
	}
	fmt.Fprintf(b.out, "oracle: %d of %d keys rendered in process, %d bodies compared, %d wrong; corrupted-body self-test passed\n",
		len(reqs), len(keys), checked, wrong)
	return wrong, nil
}
