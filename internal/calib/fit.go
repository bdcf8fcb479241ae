package calib

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Features are the baseline-model descriptors of one observation, computed
// by evaluating the analytic model at unit networks: Compute is the
// baseline-predicted computation seconds (reference cost tables), Messages
// the modeled message count (point-to-point messages plus collective tree
// stages), and Bytes the modeled payload bytes on the wire.
type Features struct {
	Compute  float64 `json:"compute_s"`
	Messages float64 `json:"messages"`
	Bytes    float64 `json:"bytes"`
}

// Params are the fitted machine parameters of the linear timing model
//
//	T = ComputeScale*Compute + LatencySec*Messages + ByteSec*Bytes + FixedSec
//
// ComputeScale is the compute-rate multiplier relative to the baseline
// cost tables (1 = the baseline machine, 2 = half as fast), LatencySec the
// effective per-message latency, ByteSec the effective seconds per byte
// (1/bandwidth), and FixedSec a fixed per-iteration overhead.
type Params struct {
	ComputeScale float64 `json:"compute_scale"`
	LatencySec   float64 `json:"latency_s"`
	ByteSec      float64 `json:"byte_s"`
	FixedSec     float64 `json:"fixed_s"`
}

// Predict evaluates the linear timing model at one observation's features.
func (p Params) Predict(f Features) float64 {
	return p.ComputeScale*f.Compute + p.LatencySec*f.Messages + p.ByteSec*f.Bytes + p.FixedSec
}

// The model terms, in design-matrix column order.
const (
	termCompute  = "compute"
	termMessages = "messages"
	termBytes    = "bytes"
	termFixed    = "fixed"
)

// linearTerms names the linear form's coefficients in Coeffs order.
var linearTerms = []string{termCompute, termMessages, termBytes, termFixed}

// termSubsets are the fall-back ladder of term combinations the linear
// form tries, in order: the full model first, then progressively coarser
// models for datasets whose observations cannot resolve every parameter
// (too few points, or features that never vary independently). Entries
// index linearTerms.
var termSubsets = [][]int{
	{0, 1, 2, 3},
	{0, 1, 2},
	{0, 1},
	{0, 3},
	{0},
}

// linearColumns are the design columns of linearTerms.
var linearColumns = []func(Features) float64{
	func(f Features) float64 { return f.Compute },
	func(f Features) float64 { return f.Messages },
	func(f Features) float64 { return f.Bytes },
	func(Features) float64 { return 1 },
}

// linearForm is the paper's linear model as a ModelForm. When the full
// four-term system is rank deficient it retries the coarser termSubsets
// (dropped terms fit as zero); ErrDegenerate is returned when even the
// compute-only model cannot be resolved.
type linearForm struct{}

func (linearForm) Name() string { return FormLinear }
func (linearForm) Coeffs() int  { return 4 }
func (linearForm) Describe() string {
	return "T = scale*C + lat*M + perbyte*B + fixed (the paper's model)"
}

func (linearForm) Fit(times []float64, feats []Features) (*FormFit, error) {
	if len(times) != len(feats) {
		return nil, fmt.Errorf("calib: %d times vs %d feature rows", len(times), len(feats))
	}
	for _, terms := range termSubsets {
		cols := make([]func(Features) float64, len(terms))
		for j, t := range terms {
			cols[j] = linearColumns[t]
		}
		x, invGram, err := solveDesign(times, feats, cols)
		if errors.Is(err, ErrDegenerate) {
			continue
		}
		if err != nil {
			return nil, err
		}
		ff := &FormFit{
			Form:   FormLinear,
			Terms:  slices.Clone(linearTerms),
			Coeffs: make([]float64, len(linearTerms)),
			StdErr: make([]float64, len(linearTerms)),
		}
		for j, t := range terms {
			ff.Coeffs[t] = x[j]
		}
		ff.finish(times, feats)

		// Standard errors sqrt(sigma² * (A'A)⁻¹_jj) with sigma² =
		// SSR/(n-k) over the k fitted terms; zero when no degrees of
		// freedom are spare.
		if n, k := len(times), len(terms); n > k {
			var ssr float64
			for _, r := range ff.Residuals {
				ssr += r * r
			}
			sigma2 := ssr / float64(n-k)
			for j, t := range terms {
				ff.StdErr[t] = math.Sqrt(sigma2 * invGram[j])
			}
		}
		return ff, nil
	}
	return nil, ErrDegenerate
}
