package calib

import (
	"fmt"
	"math"

	"krak/internal/stats"
)

// Model selection over the form zoo: every candidate form is fitted and
// scored by seeded k-fold cross-validation (the same fold assignment for
// every form, so scores are comparable), and the winner is the lowest
// held-out RMSE with a parsimony tie-break — forms whose CV error is
// within selectionTieTol of the best are considered tied, and the tie
// goes to the fewest coefficients, then to registry order (linear
// first). Nested forms fit linear data exactly as well as linear does;
// the tie-break is what makes selection recover the *generating* form
// instead of the most flexible one.

// selectionTieTol is the relative CV-RMSE band within which forms are
// considered tied and parsimony decides. Wide enough that a richer form
// fitting a simpler form's noise a few percent better does not win on
// luck; real structure buys the richer forms multiples, not percents.
const selectionTieTol = 0.10

// FormScore is one row of the selection scoreboard.
type FormScore struct {
	// Form is the candidate's registry name; Coeffs its parsimony rank.
	Form   string
	Coeffs int

	// R2 and RMSE score the full-data fit; CVRMSE and CVMAPE the held-out
	// cross-validation. Zero when Err is set.
	R2     float64
	RMSE   float64
	CVRMSE float64
	CVMAPE float64

	// Selected marks the winning form.
	Selected bool

	// Err records why the form could not be fitted or cross-validated on
	// this dataset ("" when it was scored).
	Err string
}

// Selection is a SelectModel verdict: the winning fit plus the full
// scoreboard in registry order.
type Selection struct {
	Best   *FormFit
	Scores []FormScore
}

// SelectModel fits every registered model form, cross-validates each
// with the same seeded fold assignment, and picks the winner (lowest CV
// RMSE, parsimony tie-break). Forms the dataset cannot support appear in
// the scoreboard with their error instead of scores. ErrDegenerate is
// returned when no form fits at all. Requires 2 <= k <= len(times).
func SelectModel(times []float64, feats []Features, k int, seed uint64) (*Selection, error) {
	n := len(times)
	if len(feats) != n {
		return nil, fmt.Errorf("calib: %d times vs %d feature rows", n, len(feats))
	}
	if k < 2 || k > n {
		return nil, fmt.Errorf("calib: %d folds for %d observations (want 2 <= k <= n)", k, n)
	}

	sel := &Selection{}
	fits := map[string]*FormFit{}
	for _, form := range Forms() {
		score := FormScore{Form: form.Name(), Coeffs: form.Coeffs()}
		ff, err := form.Fit(times, feats)
		if err == nil {
			var cv *CVStats
			cv, err = crossValidateWith(times, feats, k, seed, form.Fit)
			if err == nil {
				fits[form.Name()] = ff
				score.R2, score.RMSE = ff.R2, ff.RMSE
				score.CVRMSE, score.CVMAPE = cv.RMSE, cv.MAPE
			}
		}
		if err != nil {
			score.Err = err.Error()
		}
		sel.Scores = append(sel.Scores, score)
	}
	if len(fits) == 0 {
		return nil, fmt.Errorf("%w: no model form fits this dataset", ErrDegenerate)
	}

	// Lowest CV RMSE sets the band; within the band the fewest
	// coefficients win, and registry order settles exact ties (the
	// scoreboard is iterated in registry order, so the first qualifying
	// entry sticks). The absolute floor keeps numerically-perfect fits
	// (noiseless data, CV errors at machine epsilon) tied rather than
	// ranked by floating-point luck.
	bestCV := math.Inf(1)
	for _, sc := range sel.Scores {
		if sc.Err == "" && sc.CVRMSE < bestCV {
			bestCV = sc.CVRMSE
		}
	}
	var meanAbs float64
	for _, t := range times {
		meanAbs += math.Abs(t)
	}
	meanAbs /= float64(n)
	band := bestCV*(1+selectionTieTol) + 1e-9*meanAbs
	winner := -1
	for i, sc := range sel.Scores {
		if sc.Err != "" || sc.CVRMSE > band {
			continue
		}
		if winner < 0 || sc.Coeffs < sel.Scores[winner].Coeffs {
			winner = i
		}
	}
	sel.Scores[winner].Selected = true
	sel.Best = fits[sel.Scores[winner].Form]
	return sel, nil
}

// CVStats reports a k-fold cross-validation of the fitted model: each
// fold is held out once, the model is fitted on the rest, and the held-out
// observations are scored against the fold's predictions.
type CVStats struct {
	// Folds is the number of folds actually used.
	Folds int `json:"folds"`

	// RMSE is the root-mean-square held-out prediction error in seconds.
	RMSE float64 `json:"rmse_s"`

	// MAPE is the mean absolute held-out prediction error relative to the
	// observed time.
	MAPE float64 `json:"mape"`

	// MaxAPE is the worst single held-out relative error.
	MaxAPE float64 `json:"max_ape"`
}

// CrossValidateForm cross-validates a single form with the same seeded
// fold assignment SelectModel scores every candidate on, so a report for
// an explicitly chosen form matches its scoreboard row.
func CrossValidateForm(times []float64, feats []Features, k int, seed uint64, form ModelForm) (*CVStats, error) {
	return crossValidateWith(times, feats, k, seed, form.Fit)
}

// crossValidateWith is seeded, deterministic k-fold cross-validation
// over the aligned times and features, generalized over a fit function:
// observations are shuffled by a deterministic stream of the seed, split
// into k near-equal folds, and each fold is predicted by a model fitted
// on the other k-1. Requires 2 <= k <= len(times).
func crossValidateWith(times []float64, feats []Features, k int, seed uint64,
	fit func([]float64, []Features) (*FormFit, error)) (*CVStats, error) {
	n := len(times)
	if len(feats) != n {
		return nil, fmt.Errorf("calib: %d times vs %d feature rows", n, len(feats))
	}
	if k < 2 || k > n {
		return nil, fmt.Errorf("calib: %d folds for %d observations (want 2 <= k <= n)", k, n)
	}

	// Deterministic Fisher-Yates shuffle of the observation order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := stats.Derive(seed, 0xf01d5)
	for i := n - 1; i > 0; i-- {
		j := int(rng.Next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}

	cv := &CVStats{Folds: k}
	var sse float64
	scored := 0
	for fold := 0; fold < k; fold++ {
		// order[i] is held out when i ≡ fold (mod k): near-equal folds
		// without materializing index sets.
		var trT []float64
		var trF []Features
		var teIdx []int
		for i, idx := range order {
			if i%k == fold {
				teIdx = append(teIdx, idx)
			} else {
				trT = append(trT, times[idx])
				trF = append(trF, feats[idx])
			}
		}
		ff, err := fit(trT, trF)
		if err != nil {
			// err already names the package; the fold goes last so the
			// text reads "calib:" once.
			return nil, fmt.Errorf("%w (in fold %d)", err, fold)
		}
		for _, idx := range teIdx {
			pred := ff.Predict(feats[idx])
			// A form can fit its training fold yet blow up on held-out
			// points (the power law extrapolates through exp). Non-finite
			// predictions disqualify the form for this dataset rather than
			// poisoning the scoreboard with NaN/Inf that JSON cannot carry.
			if math.IsNaN(pred) || math.IsInf(pred, 0) {
				return nil, fmt.Errorf("%w: non-finite held-out prediction (in fold %d)", ErrDegenerate, fold)
			}
			e := times[idx] - pred
			sse += e * e
			if times[idx] != 0 {
				ape := math.Abs(e) / times[idx]
				cv.MAPE += ape
				if ape > cv.MaxAPE {
					cv.MaxAPE = ape
				}
			}
			scored++
		}
	}
	if scored > 0 {
		cv.RMSE = math.Sqrt(sse / float64(scored))
		cv.MAPE /= float64(scored)
	}
	return cv, nil
}
