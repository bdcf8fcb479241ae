package calib

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
