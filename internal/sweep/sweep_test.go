package sweep

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hddcart/internal/cart"
	"hddcart/internal/dataset"
	"hddcart/internal/detect"
)

// sweepFixture trains a small exact-compiled classifier and builds a
// fleet of series (with fail hours and dropped-record counts) on its
// feature space, mirroring the detect package's binned fixture. Drive
// lengths are drawn in [0, maxSamples], so small maxima also exercise
// empty drives.
func sweepFixture(t testing.TB, seed int64, drives, maxSamples int) (*cart.BinnedTree, *dataset.BinnedMatrix, []detect.Series, []detect.BinnedSeries, []int) {
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
	bm, err := dataset.BinMatrix(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := tree.Compile().CompileBinned(bm)
	if err != nil {
		t.Fatal(err)
	}
	series := make([]detect.Series, drives)
	failHours := make([]int, drives)
	binned := make([]detect.BinnedSeries, drives)
	for d := range series {
		m := rng.Intn(maxSamples + 1)
		s := detect.Series{X: make([][]float64, m), Hours: make([]int, m)}
		for i := range s.X {
			s.X[i] = x[rng.Intn(len(x))]
			s.Hours[i] = i * 8
		}
		if rng.Float64() < 0.3 {
			s.Dropped = 1 + rng.Intn(4)
		}
		series[d] = s
		failHours[d] = -1
		if m > 0 && rng.Float64() < 0.25 {
			failHours[d] = (m - 1) * 8
		}
		bs, err := detect.QuantizeSeries(bm, s)
		if err != nil {
			t.Fatal(err)
		}
		binned[d] = bs
	}
	return bt, bm, series, binned, failHours
}

// TestSweepMatchesDirectScan is the engine's correctness anchor: for
// both detector families and either preparation path, sweep outcomes
// must equal the per-drive direct scan's, drive for drive.
func TestSweepMatchesDirectScan(t *testing.T) {
	bt, bm, series, binned, failHours := sweepFixture(t, 7, 60, 900)
	for _, voters := range []int{1, 3, 7} {
		vd := &detect.VotingBinned{Model: bt, Voters: voters}
		want := detect.ScanBatchBinnedDirect(vd, binned, failHours, 1)
		res, err := SweepFleetBinned(bt, binned, failHours, Config{Voters: voters, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Outcomes, want) {
			t.Fatalf("voters=%d: voting sweep diverged from direct scan", voters)
		}

		md := &detect.MeanThresholdBinned{Model: bt, Voters: voters, Threshold: -0.1}
		wantM := detect.ScanBatchBinnedDirect(md, binned, failHours, 1)
		resM, err := SweepFleetBinned(bt, binned, failHours,
			Config{Voters: voters, Threshold: -0.1, Mean: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resM.Outcomes, wantM) {
			t.Fatalf("voters=%d: mean sweep diverged from direct scan", voters)
		}
	}
	// The float path (Prepare quantizes inside the engine) must land on
	// the same codes, hence the same outcomes.
	fleet, err := Prepare(bm, series, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bt, fleet, failHours, Config{Voters: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := detect.ScanBatchBinnedDirect(&detect.VotingBinned{Model: bt, Voters: 3}, binned, failHours, 1)
	if !reflect.DeepEqual(res.Outcomes, want) {
		t.Fatal("float-prepared sweep diverged from direct scan")
	}
}

// TestSweepDeterminismMatrix pins the collection contract: outcomes and
// merged stats (Steals aside) are byte-identical for every worker count
// and, outcomes-wise, every shard count; per-shard stats are identical
// for every worker count at a fixed shard count.
func TestSweepDeterminismMatrix(t *testing.T) {
	bt, _, _, binned, failHours := sweepFixture(t, 11, 80, 700)
	var refOut []detect.Outcome
	var refTotal Stats
	for _, shards := range []int{1, 4, 16} {
		fleet, err := PrepareBinned(binned, shards)
		if err != nil {
			t.Fatal(err)
		}
		var refShards []Stats
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := Run(bt, fleet, failHours, Config{Voters: 3, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Shards) != shards {
				t.Fatalf("shards=%d: got %d stat groups", shards, len(res.Shards))
			}
			if refOut == nil {
				refOut = res.Outcomes
				refTotal = res.Total.Canon()
			}
			if !reflect.DeepEqual(res.Outcomes, refOut) {
				t.Fatalf("shards=%d workers=%d: outcomes diverged from reference", shards, workers)
			}
			if res.Total.Canon() != refTotal {
				t.Fatalf("shards=%d workers=%d: total stats %+v, want %+v",
					shards, workers, res.Total.Canon(), refTotal)
			}
			snap := make([]Stats, len(res.Shards))
			for i, s := range res.Shards {
				snap[i] = s.Canon()
			}
			if refShards == nil {
				refShards = snap
			} else if !reflect.DeepEqual(snap, refShards) {
				t.Fatalf("shards=%d workers=%d: per-shard stats moved across worker counts", shards, workers)
			}
		}
	}
}

// TestSweepStats checks the merged counters against ground truth the
// test can compute independently. The fixture model never scores NaN, so
// NaNExcluded must equal the sum of upstream dropped-record counts.
func TestSweepStats(t *testing.T) {
	bt, _, _, binned, failHours := sweepFixture(t, 13, 50, 600)
	res, err := SweepFleetBinned(bt, binned, failHours, Config{Voters: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var samples, dropped, alarms int64
	for i := range binned {
		samples += int64(len(binned[i].Codes))
		dropped += int64(binned[i].Dropped)
	}
	for _, o := range res.Outcomes {
		if o.Alarmed {
			alarms++
		}
	}
	if res.Total.Drives != int64(len(binned)) {
		t.Fatalf("Drives = %d, want %d", res.Total.Drives, len(binned))
	}
	if res.Total.Samples != samples {
		t.Fatalf("Samples = %d, want %d", res.Total.Samples, samples)
	}
	if res.Total.NaNExcluded != dropped {
		t.Fatalf("NaNExcluded = %d, want %d", res.Total.NaNExcluded, dropped)
	}
	if res.Total.Alarms != alarms {
		t.Fatalf("Alarms = %d, want %d (from outcomes)", res.Total.Alarms, alarms)
	}
	if alarms == 0 {
		t.Fatal("fixture produced no alarms; stats check is vacuous")
	}
	// One worker on one shard never leaves home.
	one, err := SweepFleetBinned(bt, binned, failHours, Config{Voters: 3, Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Total.Steals != 0 {
		t.Fatalf("1 worker × 1 shard recorded %d steals", one.Total.Steals)
	}
}

// TestScanDelegate covers the detect-facing adapter directly: it must
// accept both binned detector families, reproduce the direct scan, and
// decline models without a tiled path.
func TestScanDelegate(t *testing.T) {
	bt, _, _, binned, failHours := sweepFixture(t, 17, 40, 300)
	vd := &detect.VotingBinned{Model: bt, Voters: 3}
	out, ok := scanDelegate(vd, binned, failHours, 2)
	if !ok {
		t.Fatal("delegate declined a VotingBinned over a tiled-capable model")
	}
	if want := detect.ScanBatchBinnedDirect(vd, binned, failHours, 1); !reflect.DeepEqual(out, want) {
		t.Fatal("delegated voting scan diverged from direct scan")
	}
	md := &detect.MeanThresholdBinned{Model: bt, Voters: 5, Threshold: -0.1}
	out, ok = scanDelegate(md, binned, failHours, 2)
	if !ok {
		t.Fatal("delegate declined a MeanThresholdBinned over a tiled-capable model")
	}
	if want := detect.ScanBatchBinnedDirect(md, binned, failHours, 1); !reflect.DeepEqual(out, want) {
		t.Fatal("delegated mean scan diverged from direct scan")
	}
	if _, ok := scanDelegate(noTileDetector{}, binned, failHours, 1); ok {
		t.Fatal("delegate accepted an unknown detector type")
	}
}

// noTileDetector is a BinnedDetector the delegate has no tiled path for.
type noTileDetector struct{}

func (noTileDetector) Detect([][]uint8) int { return -1 }

// TestSweepDelegationEndToEnd drives a fleet past SweepDelegateMin
// through detect.ScanBatchBinned, so the init-registered sweeper takes
// the scan, and checks it equals the per-drive direct path.
func TestSweepDelegationEndToEnd(t *testing.T) {
	bt, _, _, binned, _ := sweepFixture(t, 19, 30, 40)
	big := make([]detect.BinnedSeries, detect.SweepDelegateMin+5)
	failHours := make([]int, len(big))
	for i := range big {
		big[i] = binned[i%len(binned)]
		failHours[i] = -1
		if i%7 == 0 && len(big[i].Hours) > 0 {
			failHours[i] = big[i].Hours[len(big[i].Hours)-1]
		}
	}
	vd := &detect.VotingBinned{Model: bt, Voters: 3}
	want := detect.ScanBatchBinnedDirect(vd, big, failHours, 1)
	got := detect.ScanBatchBinned(vd, big, failHours, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("delegated ScanBatchBinned diverged from the direct path")
	}
}

// TestScanBatchBinnedDelegates pins that delegation really happens:
// TestSweepDelegationEndToEnd's outcomes would also match if the
// registered sweeper silently declined, so this test wraps the hook and
// asserts scanDelegate accepts both binned detectors (built through the
// public constructors) over a tiled model, and still declines a model
// without the tiled kernels.
func TestScanBatchBinnedDelegates(t *testing.T) {
	var accepted []bool
	detect.RegisterFleetSweeper(func(d detect.BinnedDetector, s []detect.BinnedSeries, fh []int, w int) ([]detect.Outcome, bool) {
		out, ok := scanDelegate(d, s, fh, w)
		accepted = append(accepted, ok)
		return out, ok
	})
	defer detect.RegisterFleetSweeper(scanDelegate)

	bt, _, _, binned, _ := sweepFixture(t, 31, 16, 24)
	big := make([]detect.BinnedSeries, detect.SweepDelegateMin)
	for i := range big {
		big[i] = binned[i%len(binned)]
	}
	vd, err := detect.NewVotingBinned(bt, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	md, err := detect.NewMeanThresholdBinned(bt, 5, -0.1)
	if err != nil {
		t.Fatal(err)
	}
	untiled := &detect.VotingBinned{Model: untiledModel{bt}, Voters: 3}
	for _, d := range []detect.BinnedDetector{vd, md, untiled} {
		detect.ScanBatchBinned(d, big, nil, 2)
	}
	if want := []bool{true, true, false}; !reflect.DeepEqual(accepted, want) {
		t.Fatalf("delegation accepted %v, want %v (voting, mean, untiled)", accepted, want)
	}
}

// untiledModel hides a binned model's tiled kernels, leaving only the
// per-row scoring a BinnedPredictor promises.
type untiledModel struct{ m detect.BinnedPredictor }

func (u untiledModel) Predict(codes []uint8) float64 { return u.m.Predict(codes) }

// TestSweepEdgeCases: empty fleets, all-empty drives, and a single
// drive must all produce well-formed results.
func TestSweepEdgeCases(t *testing.T) {
	bt, _, _, binned, failHours := sweepFixture(t, 23, 8, 120)
	res, err := SweepFleetBinned(bt, nil, nil, Config{Voters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 0 || res.Total != (Stats{}) {
		t.Fatalf("empty fleet: %d outcomes, total %+v", len(res.Outcomes), res.Total)
	}
	empty := make([]detect.BinnedSeries, 5)
	res, err = SweepFleetBinned(bt, empty, nil, Config{Voters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 5 || res.Total.Drives != 5 || res.Total.Samples != 0 {
		t.Fatalf("all-empty drives: %d outcomes, total %+v", len(res.Outcomes), res.Total)
	}
	for i, o := range res.Outcomes {
		if o.Alarmed {
			t.Fatalf("empty drive %d alarmed", i)
		}
	}
	one, err := SweepFleetBinned(bt, binned[:1], failHours[:1], Config{Voters: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := detect.ScanBatchBinnedDirect(&detect.VotingBinned{Model: bt, Voters: 3}, binned[:1], failHours[:1], 1)
	if !reflect.DeepEqual(one.Outcomes, want) {
		t.Fatal("single-drive sweep diverged from direct scan")
	}
}

// TestFleetReuse: a prepared Fleet serves repeated Runs — different
// configs in between must not leak state into a repeat of the first.
func TestFleetReuse(t *testing.T) {
	bt, _, _, binned, failHours := sweepFixture(t, 29, 40, 500)
	fleet, err := PrepareBinned(binned, 4)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for i := range binned {
		rows += len(binned[i].Codes)
	}
	if fleet.NumDrives() != len(binned) || fleet.NumRows() != rows || fleet.NumShards() != 4 {
		t.Fatalf("fleet accessors: drives=%d rows=%d shards=%d",
			fleet.NumDrives(), fleet.NumRows(), fleet.NumShards())
	}
	first, err := Run(bt, fleet, failHours, Config{Voters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(bt, fleet, failHours, Config{Voters: 9, Threshold: -0.1, Mean: true}); err != nil {
		t.Fatal(err)
	}
	again, err := Run(bt, fleet, failHours, Config{Voters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Outcomes, first.Outcomes) || again.Total.Canon() != first.Total.Canon() {
		t.Fatal("repeat Run on a reused Fleet diverged from the first")
	}
}

// TestSweepErrors walks the validation surface of Prepare/PrepareBinned
// and Run.
func TestSweepErrors(t *testing.T) {
	bt, bm, series, binned, failHours := sweepFixture(t, 31, 6, 50)
	if _, err := Prepare(nil, series, 0); err == nil {
		t.Error("Prepare accepted a nil matrix")
	}
	short := []detect.Series{{X: [][]float64{{1}}}}
	if _, err := Prepare(bm, short, 0); err == nil {
		t.Error("Prepare accepted a short feature row")
	}
	if _, err := Prepare(bm, series, -1); err == nil {
		t.Error("Prepare accepted a negative shard count")
	}
	ragged := []detect.BinnedSeries{{Codes: [][]uint8{{1, 2}, {3}}}}
	if _, err := PrepareBinned(ragged, 0); err == nil {
		t.Error("PrepareBinned accepted ragged code rows")
	}
	fleet, err := PrepareBinned(binned, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, fleet, failHours, Config{}); err == nil {
		t.Error("Run accepted a nil model")
	}
	if _, err := Run(bt, nil, failHours, Config{}); err == nil {
		t.Error("Run accepted a nil fleet")
	}
	if _, err := Run(bt, fleet, failHours[:3], Config{}); err == nil {
		t.Error("Run accepted a mis-sized failHours")
	}
	if _, err := Run(bt, fleet, failHours, Config{Threshold: math.NaN()}); err == nil {
		t.Error("Run accepted a NaN threshold")
	}
	if _, err := Run(bt, fleet, failHours, Config{Threshold: 1.5}); err == nil {
		t.Error("Run accepted a threshold outside [-1, 1]")
	}
	if _, err := Run(bt, fleet, failHours, Config{Workers: -2}); err == nil {
		t.Error("Run accepted negative workers")
	}
}
