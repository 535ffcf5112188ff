// Package detect turns per-sample model outputs into drive-level failure
// warnings. It implements the paper's two detection schemes:
//
//   - the voting-based algorithm (§V-A3): a drive raises an alarm at the
//     first time point where more than N/2 of its last N consecutive
//     samples are classified failed;
//   - the health-degree scheme (§V-C): a drive raises an alarm when the
//     average predicted health of its last N samples falls below a
//     threshold.
//
// With N = 1 voting degenerates to the plain sequential scan used before
// §V-A3 ("predict the drive is going to break down if any sample is
// classified as failed").
//
// Invalid predictions — NaN scores from corrupt feature vectors — are
// excluded from every window rather than miscounted: a NaN compares false
// against any threshold, so counting it would silently turn a corrupt
// sample into a "healthy" vote. Both detectors behave exactly as if the
// invalid samples were absent from the series, and the alarm index still
// refers to the original series.
package detect

import (
	"fmt"
	"math"

	"hddcart/internal/smart"
)

// row is a detector's per-sample input: a float feature vector, or the
// same vector quantized onto a dataset.BinnedMatrix's code space (one
// byte per feature). Every detector, predictor interface and scoring
// path is written once over it, so float and binned scans run the same
// window code by construction.
type row interface{ []float64 | []uint8 }

// predictor scores one row: positive values mean healthy, negative
// values mean failing.
type predictor[R row] interface {
	Predict(x R) float64
}

// batchPredictor is the optional block-scoring extension of predictor:
// it scores xs into dst, reusing it when large enough, and returns the
// scored slice. dst[i] must equal Predict(xs[i]) bit for bit — detectors
// rely on that to keep batch and per-row scoring interchangeable.
type batchPredictor[R row] interface {
	predictor[R]
	PredictBatch(xs []R, dst []float64) []float64
}

// detector scans a drive's chronological rows and returns the index of
// the first alarm, or -1 when the drive passes.
type detector[R row] interface {
	Detect(xs []R) int
}

type (
	// Predictor scores one feature vector. cart.Tree and ann.Network
	// satisfy it.
	Predictor = predictor[[]float64]
	// BatchPredictor is a Predictor that also scores whole blocks; the
	// compiled models (cart.CompiledTree, forest.Compiled,
	// boost.Compiled) and ann.Network implement it.
	BatchPredictor = batchPredictor[[]float64]
	// Detector scans a drive's feature vectors for an alarm.
	Detector = detector[[]float64]
	// BinnedPredictor scores one quantized code row. cart.BinnedTree,
	// forest.Binned and boost.Binned satisfy it.
	BinnedPredictor = predictor[[]uint8]
	// BinnedBatchPredictor is the batch extension every binned model
	// implements.
	BinnedBatchPredictor = batchPredictor[[]uint8]
	// BinnedDetector scans a drive's quantized rows for an alarm.
	BinnedDetector = detector[[]uint8]
)

// validate rejects configurations that would silently degenerate: a nil
// model, a non-positive window, or a threshold outside [-1, 1] — scores
// live on the ±1 classifier / health-degree scale, so any cut outside it
// either always or never trips and is a configuration bug.
func validate(rule string, noModel bool, threshold float64, voters ...int) error {
	if noModel {
		return fmt.Errorf("detect: %s needs a model", rule)
	}
	for _, n := range voters {
		if n < 1 {
			return fmt.Errorf("detect: %s window N must be positive, got %d", rule, n)
		}
	}
	if math.IsNaN(threshold) || threshold < -1 || threshold > 1 {
		return fmt.Errorf("detect: %s threshold %v outside [-1, 1]", rule, threshold)
	}
	return nil
}

// validated returns d when its configuration is valid, else nil and the
// Validate error: the shared body of every New* constructor.
func validated[D interface{ Validate() error }](d D) (D, error) {
	if err := d.Validate(); err != nil {
		var zero D
		return zero, err
	}
	return d, nil
}

// voting is the paper's voting-based detector over a binary classifier.
// The zero-configuration escape hatches (Voters < 1 acting as 1) exist
// for literal construction in tests and experiments; production callers
// build detectors with NewVoting / NewVotingBinned, which reject
// degenerate configurations outright.
type voting[R row] struct {
	// Model scores samples; a sample votes "failed" when its score is
	// below Threshold.
	Model predictor[R]
	// Voters is N, the window size. Values < 1 behave as 1.
	Voters int
	// Threshold is the per-sample vote cut (0 for ±1 classifiers).
	Threshold float64
}

type (
	// Voting is the voting detector over feature vectors.
	Voting = voting[[]float64]
	// VotingBinned is the voting detector over quantized rows; it alarms
	// at Voting's index wherever the two models score alike.
	VotingBinned = voting[[]uint8]
)

var (
	_ Detector       = (*Voting)(nil)
	_ BinnedDetector = (*VotingBinned)(nil)
)

// NewVoting validates the configuration and returns the detector.
func NewVoting(model Predictor, voters int, threshold float64) (*Voting, error) {
	return validated(&Voting{Model: model, Voters: voters, Threshold: threshold})
}

// NewVotingBinned validates the configuration and returns the detector.
func NewVotingBinned(model BinnedBatchPredictor, voters int, threshold float64) (*VotingBinned, error) {
	return validated(&VotingBinned{Model: model, Voters: voters, Threshold: threshold})
}

// Validate rejects a nil model, a non-positive window, or a threshold
// outside [-1, 1].
func (v *voting[R]) Validate() error {
	return validate("voting", v.Model == nil, v.Threshold, v.Voters)
}

// Detect implements the detector: the first index i where more than N/2
// of the last N valid samples up to i vote failed (and at least N valid
// samples exist), else -1. NaN scores are excluded from the window.
func (v *voting[R]) Detect(xs []R) int {
	return sweepSeries(v.Model, xs, max(v.Voters, 1), v.Threshold, false)
}

// meanThreshold is the health-degree detector: it alarms when the mean
// of the last N predicted health degrees drops below Threshold. As with
// voting, literal construction tolerates Voters < 1; the constructors
// are the validating path.
type meanThreshold[R row] struct {
	// Model predicts health degrees in [−1, +1].
	Model predictor[R]
	// Voters is N, the averaging window. Values < 1 behave as 1.
	Voters int
	// Threshold is the alarm cut on the window mean.
	Threshold float64
}

type (
	// MeanThreshold is the health-degree detector over feature vectors.
	MeanThreshold = meanThreshold[[]float64]
	// MeanThresholdBinned is the health-degree detector over quantized
	// rows.
	MeanThresholdBinned = meanThreshold[[]uint8]
)

var (
	_ Detector       = (*MeanThreshold)(nil)
	_ BinnedDetector = (*MeanThresholdBinned)(nil)
)

// NewMeanThreshold validates the configuration and returns the detector.
func NewMeanThreshold(model Predictor, voters int, threshold float64) (*MeanThreshold, error) {
	return validated(&MeanThreshold{Model: model, Voters: voters, Threshold: threshold})
}

// NewMeanThresholdBinned validates the configuration and returns the
// detector.
func NewMeanThresholdBinned(model BinnedBatchPredictor, voters int, threshold float64) (*MeanThresholdBinned, error) {
	return validated(&MeanThresholdBinned{Model: model, Voters: voters, Threshold: threshold})
}

// Validate rejects a nil model, a non-positive window, or a threshold
// outside [-1, 1].
func (m *meanThreshold[R]) Validate() error {
	return validate("mean-threshold", m.Model == nil, m.Threshold, m.Voters)
}

// Detect implements the detector: the first index where the mean of the
// last N valid scores drops below Threshold, else -1. NaN scores are
// excluded from the rolling window.
func (m *meanThreshold[R]) Detect(xs []R) int {
	return sweepSeries(m.Model, xs, max(m.Voters, 1), m.Threshold, true)
}

// Series is a drive's scored sample sequence: the feature vectors of the
// records eligible for detection together with their sample hours.
type Series struct {
	X     [][]float64
	Hours []int
	// Dropped counts records excluded while building the series because
	// their feature vectors were not finite (corrupt telemetry that
	// survived upstream repair).
	Dropped int
}

// ExtractSeries computes the feature vectors of trace[from:to]. The full
// trace is retained for change-rate lookback, so records whose lookback
// reaches before the trace start are skipped. Records whose extracted
// feature vector contains a non-finite value are excluded and counted in
// Series.Dropped — scoring them would hand the model NaN inputs. from/to
// are clamped.
func ExtractSeries(features smart.FeatureSet, trace []smart.Record, from, to int) Series {
	if from < 0 {
		from = 0
	}
	if to > len(trace) {
		to = len(trace)
	}
	var s Series
	if to <= from {
		return s
	}
	s.X = make([][]float64, 0, to-from)
	s.Hours = make([]int, 0, to-from)
	var x []float64
	for i := from; i < to; i++ {
		if x == nil {
			x = make([]float64, len(features))
		}
		if !features.Extract(trace, i, x) {
			continue // reuse the buffer for the next record
		}
		if !finiteVector(x) {
			s.Dropped++
			continue
		}
		s.X = append(s.X, x)
		s.Hours = append(s.Hours, trace[i].Hour)
		x = nil
	}
	return s
}

// finiteVector reports whether every component of x is a real number.
func finiteVector(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Outcome is the result of scanning one drive.
type Outcome struct {
	// Alarmed reports whether the detector raised a warning.
	Alarmed bool
	// AlarmHour is the sample hour of the alarm (valid when Alarmed).
	AlarmHour int
	// LeadHours is the time in advance of the failure (failed drives
	// with an alarm only; -1 otherwise).
	LeadHours int
}

// AlarmOutcome converts an alarm index (-1 = none) into an Outcome
// against the drive's sample hours and failure instant — the shared
// conversion every scan path (Scan, ScanBinned, ScanAll, internal/sweep)
// applies so a given alarm index always yields the same Outcome.
func AlarmOutcome(hours []int, idx, failHour int) Outcome {
	if idx < 0 {
		return Outcome{LeadHours: -1}
	}
	out := Outcome{Alarmed: true, AlarmHour: hours[idx], LeadHours: -1}
	if failHour >= 0 {
		out.LeadHours = failHour - out.AlarmHour
	}
	return out
}

// Scan runs a detector over a drive's series. failHour is the drive's
// failure instant, or -1 for good drives.
func Scan(d Detector, s Series, failHour int) Outcome {
	return AlarmOutcome(s.Hours, d.Detect(s.X), failHour)
}

// multiVoting evaluates the voting detector for several window sizes in
// a single pass over a drive's samples, scoring each sample exactly
// once. ROC sweeps over N (the paper's Figs. 2 and 5) are ~|N| times
// cheaper this way than running independent detectors.
type multiVoting[R row] struct {
	// Model scores samples; a sample votes "failed" below Threshold.
	Model predictor[R]
	// Voters lists the window sizes to evaluate (values < 1 act as 1).
	Voters []int
	// Threshold is the per-sample vote cut.
	Threshold float64
	// Workers caps the goroutines used to score the samples (≤ 1 scores
	// serially). Any worker count yields identical alarms: every sample's
	// score lands at its own index before the vote sweep runs.
	Workers int
}

type (
	// MultiVoting is the multi-window voting detector over feature
	// vectors.
	MultiVoting = multiVoting[[]float64]
	// MultiVotingBinned is the multi-window voting detector over
	// quantized rows.
	MultiVotingBinned = multiVoting[[]uint8]
)

// NewMultiVoting validates the configuration and returns the detector.
func NewMultiVoting(model Predictor, voters []int, threshold float64, workers int) (*MultiVoting, error) {
	return validated(&MultiVoting{Model: model, Voters: voters, Threshold: threshold, Workers: workers})
}

// NewMultiVotingBinned validates the configuration and returns the
// detector.
func NewMultiVotingBinned(model BinnedBatchPredictor, voters []int, threshold float64, workers int) (*MultiVotingBinned, error) {
	return validated(&MultiVotingBinned{Model: model, Voters: voters, Threshold: threshold, Workers: workers})
}

// Validate rejects a nil model, non-positive window sizes, thresholds
// outside [-1, 1] and negative worker counts.
func (m *multiVoting[R]) Validate() error {
	if err := validate("multi-voting", m.Model == nil, m.Threshold, m.Voters...); err != nil {
		return err
	}
	if m.Workers < 0 {
		return fmt.Errorf("detect: multi-voting workers must be non-negative, got %d", m.Workers)
	}
	return nil
}

// DetectAll returns, for each configured window size, the index of the
// first alarm (-1 = none), in the same order as Voters. Samples are
// scored through the model's batch path when available, fanned across up
// to Workers goroutines. NaN scores are excluded from every window, with
// alarm indexes reported in series coordinates — identical to running
// the voting detector per window size.
func (m *multiVoting[R]) DetectAll(xs []R) []int {
	if len(m.Voters) == 0 {
		return []int{}
	}
	scores := make([]float64, len(xs))
	scoreInto(m.Model, xs, scores, m.Workers)
	return multiVoteAlarms(scores, m.Voters, m.Threshold)
}

// ScanAll runs DetectAll over a drive's rows and converts each alarm
// into an Outcome against the rows' sample hours, as Scan does for a
// single detector.
func (m *multiVoting[R]) ScanAll(rows []R, hours []int, failHour int) []Outcome {
	idxs := m.DetectAll(rows)
	out := make([]Outcome, len(idxs))
	for i, idx := range idxs {
		out[i] = AlarmOutcome(hours, idx, failHour)
	}
	return out
}
