package calib

import (
	"math"
	"testing"

	"krak/internal/stats"
)

// drawParams draws a random but physically plausible parameter vector
// from a seeded stream: compute scales from quarter to 4x the baseline,
// microsecond-to-100µs latencies, 10 MB/s-to-10 GB/s bandwidths, and up
// to a millisecond of fixed overhead.
func drawParams(rng *stats.SplitMix64) Params {
	return Params{
		ComputeScale: 0.25 + 3.75*rng.Float64(),
		LatencySec:   1e-6 + 99e-6*rng.Float64(),
		ByteSec:      1e-10 + 1e-7*rng.Float64(),
		FixedSec:     1e-3 * rng.Float64(),
	}
}

// drawFeatures draws a feature matrix shaped like a real sweep: compute
// shrinking and message counts growing with the point index, with
// per-point jitter so the design matrix is well conditioned.
func drawFeatures(rng *stats.SplitMix64, n int) []Features {
	out := make([]Features, n)
	for i := range out {
		scale := float64(uint(1) << (i % 8)) // PE-doubling ladder
		out[i] = Features{
			Compute:  (0.5 + rng.Float64()) * 0.2 / scale,
			Messages: (0.5 + rng.Float64()) * 100 * scale,
			Bytes:    (0.5 + rng.Float64()) * 1e6 * math.Sqrt(scale),
		}
	}
	return out
}

// relErr is |got-want|/|want| with a zero-want guard.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestFitRecoversKnownParamsExact is the core calibration property: for
// randomized parameter draws (seeded, deterministic), fitting on
// noiseless synthetic data generated from those parameters recovers them
// to numerical precision.
func TestFitRecoversKnownParamsExact(t *testing.T) {
	const draws = 50
	const tol = 1e-6 // documented recovery tolerance on noiseless data
	for draw := 0; draw < draws; draw++ {
		rng := stats.Derive(0xdeadbeef, uint64(draw))
		want := drawParams(rng)
		feats := drawFeatures(rng, 40)
		times := Synthesize(want, feats, 0, uint64(draw))

		fr, err := Fit(times, feats)
		if err != nil {
			t.Fatalf("draw %d: %v", draw, err)
		}
		if len(fr.Terms) != 4 {
			t.Fatalf("draw %d: fell back to terms %v", draw, fr.Terms)
		}
		got := fr.Params
		checks := []struct {
			name      string
			got, want float64
		}{
			{"compute scale", got.ComputeScale, want.ComputeScale},
			{"latency", got.LatencySec, want.LatencySec},
			{"byte cost", got.ByteSec, want.ByteSec},
			{"fixed", got.FixedSec, want.FixedSec},
		}
		for _, c := range checks {
			if relErr(c.got, c.want) > tol {
				t.Errorf("draw %d: %s %.6g, want %.6g (rel err %.2g > %.2g)",
					draw, c.name, c.got, c.want, relErr(c.got, c.want), tol)
			}
		}
		if fr.R2 < 1-1e-9 {
			t.Errorf("draw %d: R² = %.9f on noiseless data", draw, fr.R2)
		}
	}
}

// TestFitRecoversKnownParamsNoisy adds ±2% multiplicative measurement
// noise: the dominant parameters must still come back within a loose but
// documented tolerance, and the reported standard errors must bracket the
// realized estimation error at a generous multiple.
func TestFitRecoversKnownParamsNoisy(t *testing.T) {
	const draws = 25
	const tol = 0.25 // documented recovery tolerance under ±2% noise
	for draw := 0; draw < draws; draw++ {
		rng := stats.Derive(0xabad1dea, uint64(draw))
		want := drawParams(rng)
		feats := drawFeatures(rng, 64)
		times := Synthesize(want, feats, 0.02, uint64(draw))

		fr, err := Fit(times, feats)
		if err != nil {
			t.Fatalf("draw %d: %v", draw, err)
		}
		if relErr(fr.Params.ComputeScale, want.ComputeScale) > tol {
			t.Errorf("draw %d: compute scale %.4g, want %.4g", draw, fr.Params.ComputeScale, want.ComputeScale)
		}
		if relErr(fr.Params.LatencySec, want.LatencySec) > tol {
			t.Errorf("draw %d: latency %.4g, want %.4g", draw, fr.Params.LatencySec, want.LatencySec)
		}
		// The standard error must be a plausible uncertainty: nonzero, and
		// the realized error should rarely exceed ~6 sigma.
		if fr.StdErr.ComputeScale <= 0 {
			t.Errorf("draw %d: zero stderr on compute scale", draw)
		} else if e := math.Abs(fr.Params.ComputeScale - want.ComputeScale); e > 6*fr.StdErr.ComputeScale {
			t.Errorf("draw %d: compute-scale error %.3g exceeds 6 sigma (%.3g)", draw, e, fr.StdErr.ComputeScale)
		}
	}
}

// TestFitFallbackLadder exercises the rank-deficiency fall-backs: when a
// feature never varies (or the dataset is tiny) the fit must drop to a
// coarser term subset rather than fail.
func TestFitFallbackLadder(t *testing.T) {
	// All observations identical up to compute: only {compute} or
	// {compute, fixed} is resolvable.
	feats := []Features{
		{Compute: 0.1, Messages: 100, Bytes: 1e6},
		{Compute: 0.2, Messages: 100, Bytes: 1e6},
		{Compute: 0.4, Messages: 100, Bytes: 1e6},
	}
	times := []float64{0.15, 0.25, 0.45}
	fr, err := Fit(times, feats)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Terms) == 4 {
		t.Fatalf("constant messages/bytes columns fitted as full model: %v", fr.Terms)
	}
	for _, res := range fr.Residuals {
		if math.Abs(res) > 1e-9 {
			t.Errorf("fallback fit should interpolate this collinear data; residual %g", res)
		}
	}

	// Two observations can still resolve a two-term model.
	fr2, err := Fit(times[:2], feats[:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(fr2.Terms) > 2 {
		t.Errorf("2 observations fitted %d terms", len(fr2.Terms))
	}

	// A single nonzero-compute observation resolves compute only.
	fr1, err := Fit([]float64{0.2}, []Features{{Compute: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr1.Terms) != 1 || fr1.Params.ComputeScale != 2 {
		t.Errorf("single-point fit: terms %v scale %g", fr1.Terms, fr1.Params.ComputeScale)
	}
}

// TestFitDegenerate pins the error contract for unresolvable datasets.
func TestFitDegenerate(t *testing.T) {
	if _, err := Fit(nil, nil); err != ErrDegenerate {
		t.Errorf("empty fit: %v", err)
	}
	// All-zero features: no subset has full rank.
	if _, err := Fit([]float64{1, 2}, make([]Features, 2)); err != ErrDegenerate {
		t.Errorf("zero-feature fit: %v", err)
	}
	if _, err := Fit([]float64{1, 2}, make([]Features, 3)); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestCrossValidate checks the k-fold loop: deterministic for a fixed
// seed, near-zero error on noiseless synthetic data, and input
// validation on the fold count.
func TestCrossValidate(t *testing.T) {
	rng := stats.Derive(7, 7)
	want := drawParams(rng)
	feats := drawFeatures(rng, 30)
	times := Synthesize(want, feats, 0, 7)

	cv, err := CrossValidateForm(times, feats, 5, 42, linearForm{})
	if err != nil {
		t.Fatal(err)
	}
	if cv.Folds != 5 {
		t.Errorf("folds = %d", cv.Folds)
	}
	if cv.RMSE > 1e-9 || cv.MAPE > 1e-9 {
		t.Errorf("noiseless CV error: rmse %g mape %g", cv.RMSE, cv.MAPE)
	}
	again, err := CrossValidateForm(times, feats, 5, 42, linearForm{})
	if err != nil {
		t.Fatal(err)
	}
	if *cv != *again {
		t.Errorf("CV is not deterministic: %+v vs %+v", cv, again)
	}
	other, err := CrossValidateForm(times, feats, 5, 43, linearForm{})
	if err != nil {
		t.Fatal(err)
	}
	_ = other // different seed shuffles differently; only determinism per seed is contractual

	for _, k := range []int{0, 1, 31, -2} {
		if _, err := CrossValidateForm(times, feats, k, 1, linearForm{}); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

// TestCrossValidateNoisy sanity-checks that CV error reflects the
// injected noise level rather than collapsing to zero or exploding.
func TestCrossValidateNoisy(t *testing.T) {
	rng := stats.Derive(11, 3)
	want := drawParams(rng)
	feats := drawFeatures(rng, 60)
	times := Synthesize(want, feats, 0.02, 11)

	cv, err := CrossValidateForm(times, feats, 4, 9, linearForm{})
	if err != nil {
		t.Fatal(err)
	}
	if cv.MAPE <= 0 {
		t.Error("noisy CV reports zero error")
	}
	if cv.MAPE > 0.10 {
		t.Errorf("±2%% noise should cross-validate well under 10%% MAPE, got %.3f", cv.MAPE)
	}
	if cv.MaxAPE < cv.MAPE {
		t.Errorf("max APE %.3g below mean %.3g", cv.MaxAPE, cv.MAPE)
	}
}
