package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny is a run scaled down to two seconds of load, one set-up, short
// rate steps and a two-scenario mesh sample.
func tiny(t *testing.T, workload string, trace bool, portBase int) config {
	return config{workload: workload, seed: 3, seconds: 2 * time.Second, trace: trace,
		spansPath: filepath.Join(t.TempDir(), "spans.jsonl"), portBase: portBase, conns: 2,
		setups: 1, stepLen: 200 * time.Millisecond, bisections: 0, searchFor: 10 * time.Second, sample: 2,
		lagRetry: 5 * time.Second, lagPause: time.Second}
}

// TestTinyRuns runs every workload untraced and traced at tiny scale and
// checks that each metric of the contract, and each report-only one,
// prints by name with its unit, that the final result holds exactly the
// contract's metrics, and that the traced spans nest.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving stack")
	}
	for i, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := tiny(t, name, trace, 27410+10*i)
			t.Run(fmtRun(name, trace), func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(context.Background(), cfg, time.Now(), &out)
				if errors.Is(err, errLag) {
					t.Skipf("this host is too busy to pace the load: %v", err)
				}
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want, printedOnly := endToEnd, reportOnly
				if trace {
					want, printedOnly = perLayer, nil
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m := res.Metrics[d.name]; m.Unit != d.unit {
						t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				for _, d := range append(want, printedOnly...) {
					if !printed(out.String(), d) {
						t.Errorf("metric %s (%s) is not printed:\n%s", d.name, d.unit, out.String())
					}
				}
				if trace {
					checkSpansNest(t, cfg.spansPath)
				}
			})
		}
	}
}

func fmtRun(name string, trace bool) string {
	if trace {
		return name + "/traced"
	}
	return name + "/untraced"
}

// printed reports whether out has the metric's report line, name and
// unit included.
func printed(out string, d metricDef) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == "metric" && f[1] == d.name && f[3] == d.unit {
			return true
		}
	}
	return false
}

// checkSpansNest reads a span dump and checks that every replica span
// lies inside its request's gateway span, and every gateway span inside
// its client span.
func checkSpansNest(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byRID := map[int64]map[string]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.RID < 0 {
			continue
		}
		if byRID[s.RID] == nil {
			byRID[s.RID] = map[string]span{}
		}
		byRID[s.RID][s.Name] = s
	}
	if len(byRID) == 0 {
		t.Fatal("no request spans written")
	}
	inside := func(in, out span) bool { return in.Start >= out.Start && in.End <= out.End && in.Start < in.End }
	for rid, spans := range byRID {
		c, g, s := spans["client"], spans["gateway"], spans["server"]
		if !inside(g, c) || !inside(s, g) {
			t.Fatalf("request %d: spans do not nest: client %+v gateway %+v server %+v", rid, c, g, s)
		}
	}
}

// TestNestingRejectsEscapedSpan feeds the run-time nesting check a
// replica span that ends after its gateway span.
func TestNestingRejectsEscapedSpan(t *testing.T) {
	spans := []span{
		{Name: "client", RID: 1, Start: 10, End: 100},
		{Name: "gateway", Parent: "client", RID: 1, Start: 20, End: 90},
		{Name: "server", Parent: "gateway", RID: 1, Start: 30, End: 80},
	}
	if err := nesting(spans); err != nil {
		t.Fatalf("nested spans rejected: %v", err)
	}
	spans[2].End = 95
	if err := nesting(spans); err == nil {
		t.Fatal("a replica span outside its gateway span passed")
	}
}

// TestOracleRejectsCorruptedBody serves the oracle one correct and one
// corrupted body for two keys and checks it fails only the corrupted one.
func TestOracleRejectsCorruptedBody(t *testing.T) {
	rf, err := newReferencer()
	if err != nil {
		t.Fatal(err)
	}
	good, bad := predictReq("small", 16, "general-homo"), predictReq("small", 24, "general-het")
	refs, err := rf.references([]request{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.Replace(refs[bad.key], []byte(`"pes": 24`), []byte(`"pes": 25`), 1)
	if bytes.Equal(corrupted, refs[bad.key]) {
		t.Fatal("corruption did not apply")
	}
	c := newChecker()
	if !c.observe(good, refs[good.key]) || !c.observe(bad, corrupted) {
		t.Fatal("the oracle refused a decodable body before comparing it")
	}
	if c.observe(good, corrupted) {
		t.Fatal("a body differing from its key's first body passed")
	}
	wrong, err := c.verify(refs)
	if err != nil {
		t.Fatal(err)
	}
	if wrong != 1 {
		t.Fatalf("wrong = %d, want 1 (only the corrupted body)", wrong)
	}
	if err := selfTest(good, refs[good.key]); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatchesContract checks that BENCHMARK.json names the
// metrics, units and workloads this program reports.
func TestBenchmarkJSONMatchesContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %v", len(bj.Workloads), workloadNames)
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestMeshScenariosDistinct checks the mesh-cold list: distinct
// scenarios at ≥16 cells per PE, off the calibration PEs, each simulate
// followed by its mesh-specific predict, the same set for every seed.
func TestMeshScenariosDistinct(t *testing.T) {
	keys := func(seed uint64) map[string]bool {
		set := map[string]bool{}
		for _, req := range meshCold(seed).take(3) {
			set[req.key] = true
		}
		return set
	}
	a, b := keys(1), keys(2)
	if len(a) != len(b) {
		t.Fatalf("seeds 1 and 2 give %d and %d keys", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("%s only under seed 1", k)
		}
	}
	w := meshCold(11)
	seen := map[string]bool{}
	followed := map[int]bool{}
	reqs := append(w.take(4), w.take(4)...)
	for _, req := range reqs {
		if req.pes*minCellsPerPE > quickCells[req.deck] || req.pes < 3 {
			t.Fatalf("%s at PE %d is out of range", req.deck, req.pes)
		}
		for _, c := range calPEs {
			if req.pes == c {
				t.Fatalf("%s uses calibration PE %d", req.key, c)
			}
		}
		if req.op == opSimulate {
			if seen[req.key] {
				t.Fatalf("scenario %s repeats", req.key)
			}
			seen[req.key] = true
			continue
		}
		if req.model != "mesh-specific" || followed[req.scenario] {
			t.Fatalf("unexpected follow-up %s", req.key)
		}
		followed[req.scenario] = true
	}
	if len(followed) != len(seen) {
		t.Fatalf("%d scenarios, %d follow-ups", len(seen), len(followed))
	}
}
