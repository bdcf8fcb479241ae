package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	src := `goos: linux
goarch: amd64
pkg: krak
BenchmarkSweepSerial-8   	       2	 612345678 ns/op
BenchmarkSweepParallel-8 	       4	 312345678 ns/op	 1234 B/op	      56 allocs/op
PASS
ok  	krak	3.1s
pkg: krak/internal/server
BenchmarkServePredict/warm-8         	  175310	      6799 ns/op	    6191 B/op	      82 allocs/op
some unrelated line
ok  	krak/internal/server	2.2s
`
	art, err := parse(bufio.NewScanner(strings.NewReader(src)))
	if err != nil {
		t.Fatal(err)
	}
	if art.Schema != ArtifactSchema {
		t.Errorf("schema %q", art.Schema)
	}
	if len(art.Results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(art.Results))
	}
	r0 := art.Results[0]
	// Every line carries -8, so the suffix moves into Procs.
	if r0.Pkg != "krak" || r0.Name != "BenchmarkSweepSerial" || r0.Procs != 8 || r0.Iterations != 2 || r0.NsPerOp != 612345678 {
		t.Errorf("result 0 drifted: %+v", r0)
	}
	r2 := art.Results[2]
	if r2.Pkg != "krak/internal/server" || r2.BPerOp != 6191 || r2.AllocsSPer != 82 {
		t.Errorf("result 2 drifted: %+v", r2)
	}
}

func TestParseBenchLineRejects(t *testing.T) {
	for _, line := range []string{
		"BenchmarkTooShort",
		"BenchmarkNoIters abc 1 ns/op",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("accepted %q", line)
		}
	}
	// A bare name+iters line (custom metrics only) still parses.
	if r, ok := parseBenchLine("BenchmarkX-4 10 3.5 widgets/op 2 ns/op"); !ok || r.NsPerOp != 2 {
		t.Errorf("custom-metric line: %+v ok=%t", r, ok)
	}
}

func TestDiffFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, art Artifact) string {
		t.Helper()
		p := filepath.Join(dir, name)
		out, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldP := write("old.json", Artifact{Schema: ArtifactSchema, Results: []Result{
		{Pkg: "krak", Name: "BenchmarkA", NsPerOp: 2e6, AllocsSPer: 1000},
		{Pkg: "krak", Name: "BenchmarkGone", NsPerOp: 5e3, AllocsSPer: 7},
	}})
	newP := write("new.json", Artifact{Schema: ArtifactSchema, Results: []Result{
		{Pkg: "krak", Name: "BenchmarkA", NsPerOp: 1e6, AllocsSPer: 200},
		{Pkg: "krak", Name: "BenchmarkNew", NsPerOp: 1e3, AllocsSPer: 3},
	}})
	out, err := diffFiles(oldP, newP)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"BenchmarkA", "2.00ms", "1.00ms", "-50.0%", "-80.0%",
		"only in " + newP + ": krak.BenchmarkNew",
		"only in " + oldP + ": krak.BenchmarkGone",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffFilesRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(p, []byte(`{"schema":"nope","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"schema":"`+ArtifactSchema+`","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diffFiles(p, good); err == nil {
		t.Fatal("bad schema accepted")
	}
}

// TestDiffFilesAcrossProcs pins that a run at GOMAXPROCS=2 (names
// suffixed -2) pairs row for row with a suffix-less GOMAXPROCS=1
// baseline: allocs/op diff as usual and the ns/op delta is labeled with
// the procs change instead of passing for like-for-like.
func TestDiffFilesAcrossProcs(t *testing.T) {
	dir := t.TempDir()
	art, err := parse(bufio.NewScanner(strings.NewReader(`pkg: krak/internal/server
BenchmarkServePredict/warm-2   100   20000 ns/op   6000 B/op   66 allocs/op
BenchmarkServePredict/cold-2   10   200000 ns/op  9000 B/op   93 allocs/op
`)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range art.Results {
		if r.Procs != 2 || strings.HasSuffix(r.Name, "-2") {
			t.Fatalf("suffix not split into procs: %+v", r)
		}
	}
	write := func(name string, art Artifact) string {
		t.Helper()
		p := filepath.Join(dir, name)
		out, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	newP := write("new.json", *art)
	oldP := write("old.json", Artifact{Schema: ArtifactSchema, Results: []Result{
		{Pkg: "krak/internal/server", Name: "BenchmarkServePredict/warm", NsPerOp: 10000, AllocsSPer: 66},
		{Pkg: "krak/internal/server", Name: "BenchmarkServePredict/cold", NsPerOp: 100000, AllocsSPer: 99},
	}})
	out, err := diffFiles(oldP, newP)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "only in") {
		t.Fatalf("rows failed to pair across procs:\n%s", out)
	}
	for _, want := range []string{
		"BenchmarkServePredict/warm", "+100.0% (procs 1→2)",
		"BenchmarkServePredict/cold", "-6.1%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

}

func TestSplitProcsLeavesMixedSuffixes(t *testing.T) {
	rs := []Result{{Name: "BenchmarkA/size-64"}, {Name: "BenchmarkB"}}
	splitProcs(rs)
	if rs[0].Name != "BenchmarkA/size-64" || rs[0].Procs != 0 {
		t.Fatalf("suffix-less run rewritten: %+v", rs)
	}
	rs = []Result{{Name: "BenchmarkA-2"}, {Name: "BenchmarkB-4"}}
	splitProcs(rs)
	if rs[0].Name != "BenchmarkA-2" || rs[1].Procs != 0 {
		t.Fatalf("disagreeing suffixes rewritten: %+v", rs)
	}
}
