package krak

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the calibration golden file instead of comparing:
//
//	go test ./pkg/krak -run TestCalibrateGolden -update
var update = flag.Bool("update", false, "rewrite the golden calibration output")

// calibSession builds a quick session with the given model for
// calibration tests.
func calibSession(t *testing.T, m *Machine, model Model) *Session {
	t.Helper()
	sc, err := NewScenario(WithModel(model))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(m, sc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCalibrateRecoversKnownMachine is the acceptance test of the
// calibration subsystem: a machine defined in a machine file (custom
// single-segment network, compute scale) generates a synthetic dataset
// through the analytic model, and calibrating that dataset against the
// baseline recovers the file's parameters within the documented
// tolerance (0.1% for model-generated data; see docs/ARCHITECTURE.md).
func TestCalibrateRecoversKnownMachine(t *testing.T) {
	const (
		wantScale = 1.7
		wantLatUS = 20.0
		wantBWMBs = 200.0
		tol       = 1e-3
	)
	machineFile := []byte(`machine lab
network lab-net
segment 0 20 200
compute-scale 1.7
quick
`)
	known, err := LoadMachine(machineFile)
	if err != nil {
		t.Fatal(err)
	}
	// Heterogeneous mode keeps the general model exactly linear in the
	// machine parameters (no worst-material max), so model-generated
	// data admits near-exact recovery.
	gen := calibSession(t, known, GeneralHeterogeneous)
	ds, err := gen.SynthesizeDataset(context.Background(), SweepPredict,
		[]string{"small", "figure2"}, []int{2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Observations) != 10 {
		t.Fatalf("synth dataset has %d observations", len(ds.Observations))
	}

	base, err := NewMachine(WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	cr, err := calibSession(t, base, GeneralHeterogeneous).Calibrate(context.Background(), ds, CalibrateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if rel := math.Abs(cr.Params.ComputeScale-wantScale) / wantScale; rel > tol {
		t.Errorf("compute scale %.6f, want %.6f (rel err %.2g)", cr.Params.ComputeScale, wantScale, rel)
	}
	if rel := math.Abs(cr.Params.LatencySeconds*1e6-wantLatUS) / wantLatUS; rel > tol {
		t.Errorf("latency %.6f us, want %.6f", cr.Params.LatencySeconds*1e6, wantLatUS)
	}
	wantByteSec := 1 / (wantBWMBs * 1e6)
	if rel := math.Abs(cr.Params.SecondsPerByte-wantByteSec) / wantByteSec; rel > tol {
		t.Errorf("byte cost %.3g s/B, want %.3g", cr.Params.SecondsPerByte, wantByteSec)
	}
	if math.Abs(cr.Params.FixedSeconds) > 1e-6 {
		t.Errorf("fixed overhead %.3g s, want ~0", cr.Params.FixedSeconds)
	}
	if cr.R2 < 1-1e-6 {
		t.Errorf("R² = %.9f on model-generated data", cr.R2)
	}

	// The fitted machine must round-trip: through the machine-file
	// format, and through prediction — predicting on the fitted machine
	// reproduces the known machine's times.
	fittedFile := FormatMachineFile(cr.Fitted)
	fitted, err := LoadMachine(fittedFile)
	if err != nil {
		t.Fatalf("fitted machine file does not load: %v\n%s", err, fittedFile)
	}
	fs := calibSession(t, fitted, GeneralHeterogeneous)
	refit, err := fs.SynthesizeDataset(context.Background(), SweepPredict, []string{"small"}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	knownAt, err := gen.SynthesizeDataset(context.Background(), SweepPredict, []string{"small"}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	got, want := refit.Observations[0].Seconds, knownAt.Observations[0].Seconds
	if rel := math.Abs(got-want) / want; rel > 5*tol {
		t.Errorf("fitted machine predicts %.6g s where the known machine predicts %.6g (rel err %.2g)",
			got, want, rel)
	}
}

// TestCalibrateOnSimulatedMeasurements calibrates against the
// discrete-event simulator's noisy, partition-aware times: the baseline
// machine should come back with a compute scale near 1 and a fit that
// cross-validates sanely.
func TestCalibrateOnSimulatedMeasurements(t *testing.T) {
	base, err := NewMachine(WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	s := calibSession(t, base, GeneralHomogeneous)
	ds, err := s.SynthesizeDataset(context.Background(), SweepSimulate,
		[]string{"small", "figure2"}, []int{2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := s.Calibrate(context.Background(), ds, CalibrateOptions{Folds: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The simulator differs from the general model (irregular partitions,
	// material mixtures, overlap, ±3% noise); the documented tolerance
	// for simulator-measured data is 25% on the compute scale.
	if cr.Params.ComputeScale < 0.75 || cr.Params.ComputeScale > 1.25 {
		t.Errorf("compute scale %.4f, want ~1 for the baseline machine", cr.Params.ComputeScale)
	}
	if cr.R2 < 0.9 {
		t.Errorf("R² = %.4f", cr.R2)
	}
	if cr.CV == nil || cr.CV.Folds != 5 {
		t.Fatalf("missing CV report: %+v", cr.CV)
	}
	if cr.CV.MAPE <= 0 || cr.CV.MAPE > 0.5 {
		t.Errorf("CV MAPE %.3f out of sane range", cr.CV.MAPE)
	}
	if len(cr.Points) != len(ds.Observations) {
		t.Errorf("%d points for %d observations", len(cr.Points), len(ds.Observations))
	}
}

// TestCalibrateDeterministic pins byte-identical output across repeated
// runs and across machine parallelism — the property the serving cache
// and the golden tests rely on.
func TestCalibrateDeterministic(t *testing.T) {
	ds := &Dataset{Name: "det", Observations: []Observation{
		{Deck: "small", PEs: 2, Seconds: 0.055},
		{Deck: "small", PEs: 4, Seconds: 0.034},
		{Deck: "small", PEs: 8, Seconds: 0.022},
		{Deck: "small", PEs: 16, Seconds: 0.016},
	}}
	render := func(parallel int) (string, []byte) {
		t.Helper()
		opts := []MachineOption{WithQuick()}
		if parallel > 0 {
			opts = append(opts, WithParallelism(parallel))
		}
		m, err := NewMachine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := calibSession(t, m, GeneralHomogeneous).Calibrate(context.Background(), ds, CalibrateOptions{Folds: 2})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		return cr.Render(), js
	}
	r1, j1 := render(0)
	r2, j2 := render(1)
	if r1 != r2 {
		t.Error("rendered calibration differs across parallelism")
	}
	if string(j1) != string(j2) {
		t.Error("calibration JSON differs across parallelism")
	}
}

// TestCalibrateGolden pins the rendered calibration of fixed datasets
// on the quick baseline machine against checked-in golden files,
// extending the experiment goldens' pattern to calibration. The
// second dataset (the quick synthetic sweep `krak calibrate -synth`
// measures) fits a negative byte cost, which must render as an
// unresolved bandwidth, not an infinite one.
func TestCalibrateGolden(t *testing.T) {
	cases := []struct {
		name, golden, src string
		negativeBytes     bool
	}{
		{"golden", "calibrate.txt", `dataset golden
obs small 2 0.052
obs small 4 0.031
obs small 8 0.021
obs small 16 0.015
obs figure2 8 0.08
obs figure2 16 0.05
`, false},
		{"negative byte cost", "calibrate_negative_bytes.txt", `dataset synth-simulate
obs small 2 0.06008875710115047
obs small 4 0.04802728297105606
obs small 8 0.0421368815723292
obs small 16 0.03941236586440176
obs small 32 0.03816150487526479
`, true},
	}
	m, err := NewMachine(WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := ParseDataset([]byte(tc.src))
			if err != nil {
				t.Fatal(err)
			}
			cr, err := calibSession(t, m, GeneralHomogeneous).Calibrate(context.Background(), ds, CalibrateOptions{Folds: 3})
			if err != nil {
				t.Fatal(err)
			}
			got := cr.Render()
			if neg := cr.Params.SecondsPerByte <= 0; neg != tc.negativeBytes {
				t.Fatalf("fitted byte cost %g: negative = %v, want %v", cr.Params.SecondsPerByte, neg, tc.negativeBytes)
			}
			if tc.negativeBytes {
				if !strings.Contains(got, "unresolved") || !strings.Contains(got, "machine file clamps to 0") || strings.Contains(got, "inf") {
					t.Errorf("negative byte cost rendered as:\n%s", got)
				}
				if bw := cr.Fitted.Network.Segments[0].BandwidthMBs; bw != 0 {
					t.Errorf("fitted machine bandwidth %g MB/s, want the clamp to 0", bw)
				}
			}
			path := filepath.Join("testdata", "golden", tc.golden)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("calibration drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCalibrationResultJSON covers the schema-stamped wire round trip.
func TestCalibrationResultJSON(t *testing.T) {
	cr := &CalibrationResult{
		Dataset:      "rt",
		Observations: 3,
		Model:        "general-homo",
		Terms:        []string{"compute", "messages"},
		Params:       FitParams{ComputeScale: 1.5, LatencySeconds: 2e-5},
		R2:           0.99,
		Fitted:       MachineSpec{}.Normalized(),
	}
	raw, err := json.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"schema":"`+CalibrationSchema+`"`) {
		t.Fatalf("schema stamp missing: %s", raw)
	}
	var back CalibrationResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Params.ComputeScale != 1.5 || back.Dataset != "rt" {
		t.Errorf("round trip drifted: %+v", back)
	}
	var bad CalibrationResult
	if err := bad.UnmarshalJSON([]byte(`{"schema":"krak.calibration/v0"}`)); !errors.Is(err, ErrSchema) {
		t.Errorf("wrong schema accepted: %v", err)
	}
}

// TestCalibrateRequestMaterialize covers the wire request's dataset
// sourcing rules.
func TestCalibrateRequestMaterialize(t *testing.T) {
	m, err := NewMachine(WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	s := calibSession(t, m, GeneralHomogeneous)
	ctx := context.Background()

	// Textual dataset.
	ds, err := CalibrateRequest{Dataset: "obs small 2 0.05\n"}.Materialize(ctx, s)
	if err != nil || len(ds.Observations) != 1 {
		t.Fatalf("dataset source: %v, %+v", err, ds)
	}
	// Structured observations.
	ds, err = CalibrateRequest{Observations: []Observation{{Deck: "small", PEs: 2, Seconds: 0.1}}}.Materialize(ctx, s)
	if err != nil || len(ds.Observations) != 1 {
		t.Fatalf("observations source: %v, %+v", err, ds)
	}
	// Synth.
	ds, err = CalibrateRequest{Synth: &SynthSpec{Op: "predict", Decks: []string{"small"}, PEs: []int{2, 4}}}.Materialize(ctx, s)
	if err != nil || len(ds.Observations) != 2 {
		t.Fatalf("synth source: %v, %+v", err, ds)
	}
	// Zero and double sources.
	if _, err := (CalibrateRequest{}).Materialize(ctx, s); !errors.Is(err, ErrCalibration) {
		t.Errorf("no source: %v", err)
	}
	both := CalibrateRequest{Dataset: "obs small 2 0.05\n", Synth: &SynthSpec{}}
	if _, err := both.Materialize(ctx, s); !errors.Is(err, ErrCalibration) {
		t.Errorf("two sources: %v", err)
	}
}
