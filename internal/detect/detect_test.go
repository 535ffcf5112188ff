package detect

import (
	"math"
	"testing"

	"hddcart/internal/smart"
)

// scoreModel predicts the single feature value itself.
type scoreModel struct{}

func (scoreModel) Predict(x []float64) float64 { return x[0] }

// series turns scores into single-feature vectors.
func series(scores ...float64) [][]float64 {
	xs := make([][]float64, len(scores))
	for i, s := range scores {
		xs[i] = []float64{s}
	}
	return xs
}

// nanCode is codeScorer's NaN entry: a row carrying it scores NaN, as a
// corrupt row does through a float model.
const nanCode = 255

// codeScorer is the byte-row counterpart of scoreModel: a code → score
// table, scoring a row by its first code.
type codeScorer struct{ table *[256]float64 }

func (c codeScorer) Predict(codes []uint8) float64 { return c.table[codes[0]] }

// batchCodeScorer is codeScorer plus the batch path.
type batchCodeScorer struct{ codeScorer }

func (c batchCodeScorer) PredictBatch(xs [][]uint8, dst []float64) []float64 {
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = c.Predict(x)
	}
	return dst
}

var _ BinnedBatchPredictor = batchCodeScorer{}

// codeRows encodes at most nanCode scores as one-byte rows over a fresh
// table: sample i gets code i, NaN samples get nanCode, so the scorer
// reproduces scores exactly, NaN included.
func codeRows(scores []float64) ([][]uint8, codeScorer) {
	table := new([256]float64)
	table[nanCode] = math.NaN()
	rows := make([][]uint8, len(scores))
	for i, s := range scores {
		c := uint8(i)
		if math.IsNaN(s) {
			c = nanCode
		} else {
			table[c] = s
		}
		rows[i] = []uint8{c}
	}
	return rows, codeScorer{table}
}

// ruleInput is one way of running a detection rule over a score
// sequence.
type ruleInput struct {
	name   string
	detect func(scores []float64, n int, th float64) int
}

// ruleInputs runs the voting rule (or, with mean, the mean-threshold
// rule) through every row type and scoring path: float rows scored per
// row and in batches, and byte rows (codeRows) scored per row and in
// batches. The brute-force and NaN-exclusion properties must hold on
// every one.
func ruleInputs(mean bool) []ruleInput {
	float := func(m Predictor) func([]float64, int, float64) int {
		return func(s []float64, n int, th float64) int {
			if mean {
				return (&MeanThreshold{Model: m, Voters: n, Threshold: th}).Detect(series(s...))
			}
			return (&Voting{Model: m, Voters: n, Threshold: th}).Detect(series(s...))
		}
	}
	codes := func(batch bool) func([]float64, int, float64) int {
		return func(s []float64, n int, th float64) int {
			rows, c := codeRows(s)
			var m BinnedPredictor = c
			if batch {
				m = batchCodeScorer{c}
			}
			if mean {
				return (&MeanThresholdBinned{Model: m, Voters: n, Threshold: th}).Detect(rows)
			}
			return (&VotingBinned{Model: m, Voters: n, Threshold: th}).Detect(rows)
		}
	}
	return []ruleInput{
		{"float", float(scoreModel{})},
		{"float-batch", float(batchScoreModel{})},
		{"codes", codes(false)},
		{"codes-batch", codes(true)},
	}
}

func TestVotingSingleVoter(t *testing.T) {
	v := &Voting{Model: scoreModel{}, Voters: 1}
	if got := v.Detect(series(1, 1, -1, 1)); got != 2 {
		t.Errorf("Detect = %d, want 2", got)
	}
	if got := v.Detect(series(1, 1, 1)); got != -1 {
		t.Errorf("clean drive Detect = %d, want -1", got)
	}
}

func TestVotingZeroVotersBehavesAsOne(t *testing.T) {
	v := &Voting{Model: scoreModel{}}
	if got := v.Detect(series(1, -1)); got != 1 {
		t.Errorf("Detect = %d, want 1", got)
	}
}

func TestVotingMajority(t *testing.T) {
	v := &Voting{Model: scoreModel{}, Voters: 3}
	// Needs >1.5 (i.e. ≥2) failed among last 3.
	if got := v.Detect(series(-1, 1, -1, 1)); got != 2 {
		t.Errorf("Detect = %d, want 2", got)
	}
	// A lone failed sample must not alarm.
	if got := v.Detect(series(1, -1, 1, 1, 1)); got != -1 {
		t.Errorf("transient blip alarmed at %d", got)
	}
}

func TestVotingSuppressesShortEpisodes(t *testing.T) {
	// 3-hour episode in an otherwise healthy drive: N=7 must not alarm,
	// N=1 must.
	s := series(1, 1, 1, -1, -1, -1, 1, 1, 1, 1, 1)
	if got := (&Voting{Model: scoreModel{}, Voters: 7}).Detect(s); got != -1 {
		t.Errorf("N=7 alarmed at %d", got)
	}
	if got := (&Voting{Model: scoreModel{}, Voters: 1}).Detect(s); got != 3 {
		t.Errorf("N=1 Detect = %d, want 3", got)
	}
}

func TestVotingCatchesPersistentDegradation(t *testing.T) {
	scores := make([]float64, 40)
	for i := range scores {
		if i < 20 {
			scores[i] = 1
		} else {
			scores[i] = -1
		}
	}
	v := &Voting{Model: scoreModel{}, Voters: 11}
	got := v.Detect(series(scores...))
	// Majority (6 of 11) reached at index 25.
	if got != 25 {
		t.Errorf("Detect = %d, want 25", got)
	}
}

func TestVotingNeedsFullWindow(t *testing.T) {
	v := &Voting{Model: scoreModel{}, Voters: 5}
	// 3 failed samples but fewer than N samples total: no alarm.
	if got := v.Detect(series(-1, -1, -1)); got != -1 {
		t.Errorf("short trace alarmed at %d", got)
	}
}

func TestVotingThreshold(t *testing.T) {
	v := &Voting{Model: scoreModel{}, Voters: 1, Threshold: 0.5}
	if got := v.Detect(series(0.6, 0.4)); got != 1 {
		t.Errorf("Detect = %d, want 1 (0.4 < 0.5)", got)
	}
}

func TestMeanThreshold(t *testing.T) {
	m := &MeanThreshold{Model: scoreModel{}, Voters: 3, Threshold: 0}
	// Means: idx2 (1-1+1)/3>0, idx3 (-1+1-1)/3<0 → alarm at 3.
	if got := m.Detect(series(1, -1, 1, -1)); got != 3 {
		t.Errorf("Detect = %d, want 3", got)
	}
	if got := m.Detect(series(1, 1, 1, 1)); got != -1 {
		t.Errorf("healthy Detect = %d, want -1", got)
	}
}

func TestMeanThresholdGradualDecline(t *testing.T) {
	// Health degrades linearly from +1 to −1; with threshold −0.5 the
	// alarm comes later than with threshold 0.
	scores := make([]float64, 21)
	for i := range scores {
		scores[i] = 1 - float64(i)/10
	}
	at0 := (&MeanThreshold{Model: scoreModel{}, Voters: 3, Threshold: 0}).Detect(series(scores...))
	atNeg := (&MeanThreshold{Model: scoreModel{}, Voters: 3, Threshold: -0.5}).Detect(series(scores...))
	if at0 < 0 || atNeg < 0 {
		t.Fatalf("no alarms: %d %d", at0, atNeg)
	}
	if atNeg <= at0 {
		t.Errorf("lower threshold alarmed earlier: %d vs %d", atNeg, at0)
	}
}

func TestMeanThresholdZeroVoters(t *testing.T) {
	m := &MeanThreshold{Model: scoreModel{}, Threshold: 0}
	if got := m.Detect(series(1, -0.1)); got != 1 {
		t.Errorf("Detect = %d, want 1", got)
	}
}

func makeTrace(hours ...int) []smart.Record {
	out := make([]smart.Record, len(hours))
	for i, h := range hours {
		out[i].Hour = h
		out[i].Normalized[0] = float64(h)
	}
	return out
}

func TestExtractSeries(t *testing.T) {
	fs := smart.FeatureSet{{Attr: smart.Catalogue[0].ID, Kind: smart.Normalized}}
	trace := makeTrace(0, 1, 2, 3, 4)
	s := ExtractSeries(fs, trace, 2, 4)
	if len(s.X) != 2 || len(s.Hours) != 2 {
		t.Fatalf("series sizes = %d/%d", len(s.X), len(s.Hours))
	}
	if s.Hours[0] != 2 || s.X[1][0] != 3 {
		t.Errorf("series content wrong: %+v", s)
	}
	// Clamping.
	s = ExtractSeries(fs, trace, -5, 99)
	if len(s.X) != 5 {
		t.Errorf("clamped series size = %d", len(s.X))
	}
}

func TestExtractSeriesSkipsShallowLookback(t *testing.T) {
	fs := smart.FeatureSet{{Attr: smart.Catalogue[0].ID, Kind: smart.ChangeRate, IntervalHours: 2}}
	trace := makeTrace(0, 1, 2, 3)
	s := ExtractSeries(fs, trace, 0, 4)
	// Hours 2 and 3 can look back 2h; 0 and 1 cannot.
	if len(s.X) != 2 || s.Hours[0] != 2 {
		t.Errorf("lookback filtering wrong: %+v", s.Hours)
	}
}

func TestScan(t *testing.T) {
	v := &Voting{Model: scoreModel{}, Voters: 1}
	s := Series{X: series(1, 1, -1), Hours: []int{10, 11, 12}}

	out := Scan(v, s, 100)
	if !out.Alarmed || out.AlarmHour != 12 || out.LeadHours != 88 {
		t.Errorf("failed-drive Scan = %+v", out)
	}

	out = Scan(v, s, -1)
	if !out.Alarmed || out.LeadHours != -1 {
		t.Errorf("good-drive Scan = %+v", out)
	}

	out = Scan(v, Series{X: series(1, 1), Hours: []int{1, 2}}, 100)
	if out.Alarmed || out.LeadHours != -1 {
		t.Errorf("clean Scan = %+v", out)
	}
}
