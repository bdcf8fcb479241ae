// Command bench2json converts `go test -bench` output on stdin into the
// JSON benchmark artifact `make bench` archives (BENCH_*.json), so
// benchmark regressions are visible PR-over-PR as a diffable file
// instead of scrollback.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | bench2json > BENCH_PRn.json
//	bench2json -diff BENCH_PR4.json BENCH_PR5.json
//
// -diff compares two archived artifacts benchstat-style: one row per
// benchmark present in both files with ns/op and allocs/op deltas, plus
// the benchmarks only one side has. CI prints the diff of every run
// against the checked-in baseline so regressions surface in the job log,
// not just the artifact.
//
// When every benchmark line of a run carries the same -N GOMAXPROCS
// suffix, it is stripped from the names and recorded as procs, so runs
// at different CPU counts still pair up row by row. Alloc counts do not
// depend on the CPU count and always diff; ns/op deltas between runs at
// different procs are labeled as such.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Result is one parsed benchmark line.
type Result struct {
	Pkg        string  `json:"pkg"`
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	BPerOp     float64 `json:"b_per_op,omitempty"`
	AllocsSPer float64 `json:"allocs_per_op,omitempty"`

	// Procs is the GOMAXPROCS the run's names carried as a -N suffix;
	// absent (0) means 1, the suffix-less go test output.
	Procs int `json:"procs,omitempty"`
}

// Artifact is the archived document.
type Artifact struct {
	Schema  string   `json:"schema"`
	Results []Result `json:"results"`
}

// ArtifactSchema identifies the artifact layout.
const ArtifactSchema = "krak.bench/v1"

func main() {
	diff := flag.Bool("diff", false, "compare two artifacts: bench2json -diff old.json new.json")
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench2json -diff old.json new.json")
			os.Exit(2)
		}
		out, err := diffFiles(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench2json:", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}
	art, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// loadArtifact reads and validates an archived benchmark artifact.
func loadArtifact(path string) (*Artifact, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(src, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if art.Schema != ArtifactSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, art.Schema, ArtifactSchema)
	}
	return &art, nil
}

// splitProcs strips a -N GOMAXPROCS suffix shared by every result's name
// and records N as the results' Procs. When the suffixes differ (a
// suffix-less run whose names merely end in digits), the names are left
// as they are.
func splitProcs(rs []Result) {
	procs := 0
	for _, r := range rs {
		i := strings.LastIndexByte(r.Name, '-')
		n, err := strconv.Atoi(r.Name[i+1:])
		if i < 0 || err != nil || n < 1 || (procs != 0 && n != procs) {
			return
		}
		procs = n
	}
	suffix := "-" + strconv.Itoa(procs)
	for i := range rs {
		rs[i].Name = strings.TrimSuffix(rs[i].Name, suffix)
		rs[i].Procs = procs
	}
}

// benchKey identifies a benchmark across artifacts by its bare name.
func benchKey(r Result) string { return r.Pkg + "." + r.Name }

// procs is a result's GOMAXPROCS, with absent meaning 1.
func procs(r Result) int { return max(r.Procs, 1) }

// fmtNs renders a ns/op value with a human unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// fmtDelta renders a relative change, benchstat-style ("~" for tiny).
func fmtDelta(old, new float64) string {
	if old == 0 {
		return "?"
	}
	d := (new - old) / old * 100
	if d > -0.5 && d < 0.5 {
		return "~"
	}
	return fmt.Sprintf("%+.1f%%", d)
}

// diffFiles renders the benchstat-style comparison of two artifacts.
func diffFiles(oldPath, newPath string) (string, error) {
	oldArt, err := loadArtifact(oldPath)
	if err != nil {
		return "", err
	}
	newArt, err := loadArtifact(newPath)
	if err != nil {
		return "", err
	}
	oldBy := map[string]Result{}
	for _, r := range oldArt.Results {
		oldBy[benchKey(r)] = r
	}
	newBy := map[string]Result{}
	for _, r := range newArt.Results {
		newBy[benchKey(r)] = r
	}

	// Benchmarks are keyed by pkg+name; rows show the bare name unless two
	// packages share it, in which case the pkg qualifies the row so a
	// regression cannot be misattributed.
	nameCount := map[string]int{}
	for _, r := range newArt.Results {
		nameCount[r.Name]++
	}
	label := func(r Result) string {
		if nameCount[r.Name] > 1 {
			return r.Pkg + "." + r.Name
		}
		return r.Name
	}

	var b strings.Builder
	rows := [][]string{{"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta"}}
	for _, nr := range newArt.Results {
		or, ok := oldBy[benchKey(nr)]
		if !ok {
			continue
		}
		nsDelta := fmtDelta(or.NsPerOp, nr.NsPerOp)
		if procs(or) != procs(nr) {
			nsDelta += fmt.Sprintf(" (procs %d→%d)", procs(or), procs(nr))
		}
		rows = append(rows, []string{
			label(nr),
			fmtNs(or.NsPerOp), fmtNs(nr.NsPerOp), nsDelta,
			fmt.Sprintf("%.0f", or.AllocsSPer), fmt.Sprintf("%.0f", nr.AllocsSPer), fmtDelta(or.AllocsSPer, nr.AllocsSPer),
		})
	}
	// Column widths count runes, not bytes: fmtNs emits "µs" values whose
	// two-byte micro sign would otherwise pad those cells one short and
	// stagger the table.
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); n > widths[i] {
				widths[i] = n
			}
		}
	}
	pad := func(n int) {
		for ; n > 0; n-- {
			b.WriteByte(' ')
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fill := widths[i] - utf8.RuneCountInString(cell)
			if i == 0 {
				b.WriteString(cell)
				pad(fill)
			} else {
				pad(fill)
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	for _, nr := range newArt.Results {
		if _, ok := oldBy[benchKey(nr)]; !ok {
			fmt.Fprintf(&b, "only in %s: %s\n", newPath, benchKey(nr))
		}
	}
	for _, or := range oldArt.Results {
		if _, ok := newBy[benchKey(or)]; !ok {
			fmt.Fprintf(&b, "only in %s: %s\n", oldPath, benchKey(or))
		}
	}
	return b.String(), nil
}

// parse scans `go test -bench` output: "pkg: ..." headers set the
// current package, "Benchmark..." lines become results, everything else
// is ignored.
func parse(sc *bufio.Scanner) (*Artifact, error) {
	art := &Artifact{Schema: ArtifactSchema, Results: []Result{}}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		r, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		r.Pkg = pkg
		//krakcheck:ignore boundedparse input is trusted `make bench` output from the local toolchain, one small record per benchmark line
		art.Results = append(art.Results, r)
	}
	splitProcs(art.Results)
	return art, sc.Err()
}

// parseBenchLine parses one benchmark result line, e.g.
//
//	BenchmarkServePredict/warm-8  175310  6799 ns/op  6191 B/op  82 allocs/op
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BPerOp = v
		case "allocs/op":
			r.AllocsSPer = v
		}
	}
	return r, true
}
