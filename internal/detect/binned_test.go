package detect

import (
	"math"
	"math/rand"
	"testing"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
)

// binnedDetectFixture trains a classifier on dyadic data (≤ 32 distinct
// values per feature, so a 32-bin matrix is singleton-binned and the
// binned compile is Exact), and builds a deterministic set of drive
// series from bin-representative rows.
func binnedDetectFixture(t *testing.T, seed int64) (*cart.CompiledTree, *cart.BinnedTree, *dataset.BinnedMatrix, []Series) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, nf = 800, 4
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for f := range row {
			row[f] = math.Floor(rng.Float64()*32) / 32
		}
		x[i] = row
		y[i] = 1
		if row[0]-row[1] > 0.2 {
			y[i] = -1
		}
		if rng.Float64() < 0.08 {
			y[i] = -y[i]
		}
	}
	tree, err := cart.TrainClassifier(x, y, nil, cart.Params{LossFA: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ct := tree.Compile()
	bm, err := dataset.BinMatrix(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := ct.CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	if !bt.Exact {
		t.Fatal("fixture compile should be Exact")
	}
	series := make([]Series, 20)
	for d := range series {
		m := 50 + rng.Intn(1200)
		s := Series{X: make([][]float64, m), Hours: make([]int, m)}
		for i := range s.X {
			s.X[i] = x[rng.Intn(len(x))]
			s.Hours[i] = i * 8
		}
		series[d] = s
	}
	return ct, bt, bm, series
}

// quantizeAll maps every fixture series onto the matrix's code space.
func quantizeAll(t *testing.T, bm *dataset.BinnedMatrix, series []Series) []BinnedSeries {
	t.Helper()
	out := make([]BinnedSeries, len(series))
	for i, s := range series {
		bs, err := QuantizeSeries(bm, s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = bs
	}
	return out
}

// TestBinnedDetectorsMatchFloat checks that every binned detector alarms
// at exactly the float detector's index on quantized input — the
// detect-level half of the cross-path equivalence contract.
func TestBinnedDetectorsMatchFloat(t *testing.T) {
	ct, bt, bm, series := binnedDetectFixture(t, 51)
	binned := quantizeAll(t, bm, series)
	for _, voters := range []int{1, 3, 7, 16} {
		fv := &Voting{Model: ct, Voters: voters}
		bv := &VotingBinned{Model: bt, Voters: voters}
		fm := &MeanThreshold{Model: ct, Voters: voters, Threshold: -0.1}
		bmn := &MeanThresholdBinned{Model: bt, Voters: voters, Threshold: -0.1}
		for i := range series {
			if want, got := fv.Detect(series[i].X), bv.Detect(binned[i].Codes); want != got {
				t.Fatalf("voters=%d drive %d: Voting %d vs VotingBinned %d", voters, i, want, got)
			}
			if want, got := fm.Detect(series[i].X), bmn.Detect(binned[i].Codes); want != got {
				t.Fatalf("voters=%d drive %d: MeanThreshold %d vs binned %d", voters, i, want, got)
			}
		}
	}
}

// TestMultiVotingBinnedMatchesFloat checks the multi-window sweep across
// worker counts: alarms must be identical to the float MultiVoting and
// independent of Workers.
func TestMultiVotingBinnedMatchesFloat(t *testing.T) {
	ct, bt, bm, series := binnedDetectFixture(t, 77)
	binned := quantizeAll(t, bm, series)
	voters := []int{1, 2, 5, 9, 32}
	ref := &MultiVoting{Model: ct, Voters: voters, Workers: 1}
	for _, workers := range []int{0, 1, 3} {
		mv := &MultiVotingBinned{Model: bt, Voters: voters, Workers: workers}
		for i := range series {
			want := ref.DetectAll(series[i].X)
			got := mv.DetectAll(binned[i].Codes)
			for k := range want {
				if want[k] != got[k] {
					t.Fatalf("workers=%d drive %d window %d: float %d vs binned %d",
						workers, i, voters[k], want[k], got[k])
				}
			}
		}
		if got := mv.DetectAll(nil); len(got) != len(voters) {
			t.Fatalf("empty series: got %d alarms, want %d", len(got), len(voters))
		}
	}
	empty := &MultiVotingBinned{Model: bt}
	if got := empty.DetectAll(binned[0].Codes); len(got) != 0 {
		t.Fatalf("no windows: got %v", got)
	}
	// ScanAll mirrors the float conversion of indexes to outcomes.
	failHour := series[0].Hours[len(series[0].Hours)-1]
	fo := ref.ScanAll(series[0].X, series[0].Hours, failHour)
	bo := (&MultiVotingBinned{Model: bt, Voters: voters, Workers: 1}).
		ScanAll(binned[0].Codes, binned[0].Hours, failHour)
	for k := range fo {
		if fo[k] != bo[k] {
			t.Fatalf("ScanAll window %d: float %+v vs binned %+v", voters[k], fo[k], bo[k])
		}
	}
}

// TestScanBatchBinnedMatchesFloat checks the fleet path: outcomes equal
// the float ScanBatch outcome for every drive, at every worker count.
func TestScanBatchBinnedMatchesFloat(t *testing.T) {
	ct, bt, bm, series := binnedDetectFixture(t, 90)
	binned := quantizeAll(t, bm, series)
	failHours := make([]int, len(series))
	for i := range failHours {
		failHours[i] = -1
		if i%3 == 0 {
			failHours[i] = series[i].Hours[len(series[i].Hours)-1] + 24
		}
	}
	want := ScanBatch(&Voting{Model: ct, Voters: 5}, series, failHours, 1)
	for _, workers := range []int{0, 1, 4, 64} {
		got := ScanBatchBinned(&VotingBinned{Model: bt, Voters: 5}, binned, failHours, workers)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d drive %d: float %+v vs binned %+v", workers, i, want[i], got[i])
			}
		}
	}
	// nil failHours treats every drive as good.
	out := ScanBatchBinned(&VotingBinned{Model: bt, Voters: 5}, binned, nil, 2)
	for i, o := range out {
		if o.Alarmed && o.LeadHours != -1 {
			t.Fatalf("drive %d: good drive got lead hours %d", i, o.LeadHours)
		}
	}
}

// TestQuantizeSeries pins the metadata carry-over and the ragged-row
// error path.
func TestQuantizeSeries(t *testing.T) {
	bm, err := dataset.BinMatrix([][]float64{{1, 2}, {3, 4}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := Series{X: [][]float64{{1, 2}, {3, 4}}, Hours: []int{8, 16}, Dropped: 3}
	bs, err := QuantizeSeries(bm, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Codes) != 2 || bs.Dropped != 3 || bs.Hours[1] != 16 {
		t.Fatalf("QuantizeSeries lost metadata: %+v", bs)
	}
	if _, err := QuantizeSeries(bm, Series{X: [][]float64{{1}}}); err == nil {
		t.Fatal("ragged row accepted")
	}
}

// TestBinnedDetectorValidation mirrors the float constructors' rejection
// cases.
func TestBinnedDetectorValidation(t *testing.T) {
	_, bt, _, _ := binnedDetectFixture(t, 11)
	if _, err := NewVotingBinned(nil, 3, 0); err == nil {
		t.Error("nil model accepted by NewVotingBinned")
	}
	if _, err := NewVotingBinned(bt, 0, 0); err == nil {
		t.Error("zero voters accepted by NewVotingBinned")
	}
	if _, err := NewVotingBinned(bt, 3, 2); err == nil {
		t.Error("out-of-range threshold accepted by NewVotingBinned")
	}
	if _, err := NewMeanThresholdBinned(nil, 3, 0); err == nil {
		t.Error("nil model accepted by NewMeanThresholdBinned")
	}
	if _, err := NewMeanThresholdBinned(bt, 3, math.NaN()); err == nil {
		t.Error("NaN threshold accepted by NewMeanThresholdBinned")
	}
	if _, err := NewMultiVotingBinned(bt, []int{3, 0}, 0, 1); err == nil {
		t.Error("zero window accepted by NewMultiVotingBinned")
	}
	if _, err := NewMultiVotingBinned(bt, []int{3}, 0, -1); err == nil {
		t.Error("negative workers accepted by NewMultiVotingBinned")
	}
	if v, err := NewVotingBinned(bt, 3, 0); err != nil || v == nil {
		t.Errorf("valid binned voting rejected: %v", err)
	}
	if m, err := NewMeanThresholdBinned(bt, 3, -0.5); err != nil || m == nil {
		t.Errorf("valid binned mean-threshold rejected: %v", err)
	}
	if m, err := NewMultiVotingBinned(bt, []int{1, 3}, 0, 2); err != nil || m == nil {
		t.Errorf("valid binned multi-voting rejected: %v", err)
	}
}
