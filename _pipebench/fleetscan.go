package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hddcart"
	"hddcart/internal/detect"
)

// Fleet-scan sizing. Every simulated good drive yields fleetGoodWeeks
// one-week windows and every failed drive the fleetFailedWeeks weeks
// before its failure, each window a drive of its own; the failed scale is
// raised by the same ratio so the failed share stays the paper's.
const (
	fleetScale       = 0.028 // ≈ 5,050 scanned drives, 1.23× detect.SweepDelegateMin
	fleetGoodWeeks   = 7
	fleetFailedWeeks = 2
	fleetLookback    = 8 // hours of history before each week for the 6 h change rates
)

// fleetInst is the operator's periodic whole-fleet scan of in-memory
// records: extract each drive's most recent week, bin and quantize the
// fleet, compile the models onto the codes and scan through
// hddcart.ScanBatchBinned, which hands fleets this large to the sweep
// engine.
type fleetInst struct {
	m     *models
	recs  [][]hddcart.Record
	from  []int // first scanned record of each drive
	fail  []int
	fc    hddcart.FleetCodes
	sh    shape
	last  fleetPass
	diags fleetDiag
}

type fleetPass struct {
	series  []hddcart.Series
	codes   []hddcart.BinnedSeries
	binned  [3]hddcart.BinnedBatchPredictor
	dets    [3]hddcart.BinnedDetector
	outs    [3][]hddcart.Outcome
	samples int
	alarms  int
}

// fleetDiag holds the traced run's extra measurements on the last
// pass's codes: the direct per-drive scan and an explicit sweep.
type fleetDiag struct {
	shardSkew   float64
	steals      int64
	nanExcluded int64
}

func setupFleetScan(seed int64, root spanRef, _ string) (instance, error) {
	failedScale := fleetScale * fleetGoodWeeks / fleetFailedWeeks
	drives, err := generate(seed, fleetScale, failedScale,
		weekCut(periodEnd, fleetLookback, fleetFailedWeeks))
	if err != nil {
		return nil, err
	}
	m, err := train(drives, root)
	if err != nil {
		return nil, err
	}
	dropTraining(drives)
	f := &fleetInst{m: m}
	failed := 0
	for _, d := range drives {
		for _, w := range d.windows {
			if len(w) == 0 {
				continue
			}
			f.recs = append(f.recs, w)
			f.from = append(f.from, hoursBefore(w, w[0].Hour+fleetLookback))
			fh := -1
			if d.drive.Failed {
				fh = d.drive.FailHour
				failed++
			}
			f.fail = append(f.fail, fh)
			f.sh.Records += len(w)
		}
	}
	f.sh.Drives = len(f.recs)
	f.sh.FailedShare = float64(failed) / float64(len(f.recs))
	return f, nil
}

// extract computes every drive's series on workers goroutines.
func (f *fleetInst) extract(workers int) []hddcart.Series {
	series := make([]hddcart.Series, len(f.recs))
	per := (len(f.recs) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				series[i] = hddcart.ExtractSeries(f.m.features, f.recs[i], f.from[i], len(f.recs[i]))
			}
		}(w*per, min((w+1)*per, len(f.recs)))
	}
	wg.Wait()
	return series
}

// pass runs the scan path once on workers goroutines; spans go under a
// root of the given name.
func (f *fleetInst) pass(tr *tracer, name string, workers int) (fleetPass, error) {
	var p fleetPass
	root := tr.root(name)
	defer root.end()
	sp := root.child("detect.extract")
	p.series = f.extract(workers)
	sp.end()
	sp = root.child("dataset.bin")
	rows := make([][]float64, 0, f.sh.Records)
	for _, s := range p.series {
		rows = append(rows, s.X...)
	}
	bm, err := hddcart.BinFeatureMatrix(rows, maxBins)
	sp.end()
	if err != nil {
		return p, err
	}
	p.samples = len(rows)
	sp = root.child("dataset.quantize")
	p.codes, err = hddcart.QuantizeFleet(bm, p.series, &f.fc)
	sp.end()
	if err != nil {
		return p, err
	}
	sp = root.child("cart.compile")
	for k, model := range []hddcart.Predictor{f.m.ct, f.m.rt, f.m.forest} {
		if p.binned[k], err = hddcart.CompileModelBinned(model, bm); err != nil {
			sp.end()
			return p, err
		}
		if k == 1 {
			p.dets[k], err = hddcart.NewBinnedMeanThresholdDetector(p.binned[k], voters, rtThreshold)
		} else {
			p.dets[k], err = hddcart.NewBinnedVotingDetector(p.binned[k], voters, 0)
		}
		if err != nil {
			sp.end()
			return p, err
		}
	}
	sp.end()
	for k, det := range p.dets {
		sp = root.child("detect.scan_" + modelNames[k])
		p.outs[k] = hddcart.ScanBatchBinned(det, p.codes, f.fail, workers)
		sp.end()
		for _, o := range p.outs[k] {
			if o.Alarmed {
				p.alarms++
			}
		}
	}
	return p, nil
}

func (f *fleetInst) measure(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	all := runtime.NumCPU()
	var wide, one []float64
	mem := readMem()
	start := time.Now()
	// Passes at workers = NumCPU fill the budget; one pass at workers = 1
	// follows. Each pass starts from a collected heap, so one pass's
	// garbage does not tax the next.
	for len(one) == 0 {
		narrow := len(wide) >= minPasses && time.Since(start) >= budget
		workers, name := all, "fleetscan.pass"
		if narrow {
			workers, name = 1, "fleetscan.pass_1w"
		}
		f.last = fleetPass{}
		runtime.GC()
		t := time.Now()
		p, err := f.pass(tr, name, workers)
		if err != nil {
			return nil, fmt.Errorf("fleet-scan pass: %w", err)
		}
		d := time.Since(t).Seconds()
		if narrow {
			one = append(one, d)
		} else {
			wide = append(wide, d)
		}
		out.attempted += int64(3 * len(f.recs))
		out.items += int64(p.samples)
		f.last = p
	}
	out.mem = mem.since()
	// As in evaluate: both figures come from the median pass.
	out.throughput = float64(f.last.samples) / median(wide)
	out.p50MS = median(wide) * 1e3
	out.named["scan_samples_per_s"] = out.throughput
	out.named["scan_1w_samples_per_s"] = float64(f.last.samples) / median(one)
	out.named["passes"] = float64(len(wide) + len(one))
	if tr != nil {
		if err := f.diagnose(tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// diagnose times, on the last pass's codes and at workers = NumCPU, the
// direct per-drive scan that ScanBatchBinned's delegation replaces (all
// three models: compare with detect.scan_{ct,rt,forest}_s together), and
// one explicit prepare + run of the sweep engine per model.
func (f *fleetInst) diagnose(tr *tracer) error {
	p := &f.last
	root := tr.root("fleetscan.diag")
	defer root.end()
	for _, det := range p.dets {
		sp := root.child("detect.scan_direct")
		detect.ScanBatchBinnedDirect(det, p.codes, f.fail, runtime.NumCPU())
		sp.end()
	}
	sp := root.child("sweep.prepare")
	fleet, err := hddcart.PrepareSweepBinned(p.codes, 0)
	sp.end()
	if err != nil {
		return err
	}
	f.diags = fleetDiag{}
	for k, bp := range p.binned {
		tp, ok := bp.(hddcart.TiledPredictor)
		if !ok {
			return fmt.Errorf("fleet-scan: %s model has no tiled kernels", modelNames[k])
		}
		cfg := hddcart.SweepConfig{Voters: voters, Mean: k == 1}
		if k == 1 {
			cfg.Threshold = rtThreshold
		}
		sp = root.child("sweep.run")
		res, err := hddcart.RunSweep(tp, fleet, f.fail, cfg)
		sp.end()
		if err != nil {
			return err
		}
		var maxS, sum float64
		for _, s := range res.Shards {
			maxS = max(maxS, float64(s.Samples))
			sum += float64(s.Samples)
		}
		if sum > 0 {
			f.diags.shardSkew = maxS / (sum / float64(len(res.Shards)))
		}
		f.diags.steals += res.Total.Steals
		f.diags.nanExcluded += res.Total.NaNExcluded
	}
	return nil
}

// check compares each model's binned outcomes with the pointer-model
// oracle where the binned model is exact, and with the direct binned scan
// otherwise, counting the oracle disagreements.
func (f *fleetInst) check(out *outcome) error {
	p := &f.last
	oracle, err := floatDetectors(f.m, false)
	if err != nil {
		return err
	}
	for k := range p.dets {
		want := hddcart.ScanBatch(oracle[k], p.series, f.fail, runtime.NumCPU())
		differ := 0
		for i := range want {
			if want[i] != p.outs[k][i] {
				differ++
			}
		}
		out.checks["oracle_disagreements_"+modelNames[k]] = float64(differ)
		if exact(p.binned[k]) {
			if differ > 0 {
				return fmt.Errorf("fleet-scan %s: exact binned model disagrees with the oracle on %d drives", modelNames[k], differ)
			}
			continue
		}
		direct := detect.ScanBatchBinnedDirect(p.dets[k], p.codes, f.fail, runtime.NumCPU())
		for i := range direct {
			if direct[i] != p.outs[k][i] {
				return fmt.Errorf("fleet-scan %s: drive %d outcome %+v differs from the direct scan's %+v",
					modelNames[k], i, p.outs[k][i], direct[i])
			}
		}
	}
	return nil
}

// exact reports whether a binned model scores every bin-representative
// input as its float source does.
func exact(bp hddcart.BinnedBatchPredictor) bool {
	switch m := bp.(type) {
	case *hddcart.BinnedTree:
		return m.Exact
	case *hddcart.BinnedForest:
		return m.Exact
	}
	return false
}

func (f *fleetInst) layers(out *outcome, spans []Span) map[string]float64 {
	tot, passes := passTotals(spans, "fleetscan.pass")
	n := float64(max(passes, 1))
	diag, _ := passTotals(spans, "fleetscan.diag")
	return map[string]float64{
		"detect.extract_s":       tot["detect.extract"].TotalS / n,
		"detect.extract_samples": float64(f.last.samples),
		"dataset.bin_s":          tot["dataset.bin"].TotalS / n,
		"dataset.quantize_s":     tot["dataset.quantize"].TotalS / n,
		"cart.compile_s":         tot["cart.compile"].TotalS / n,
		"detect.scan_ct_s":       tot["detect.scan_ct"].TotalS / n,
		"detect.scan_rt_s":       tot["detect.scan_rt"].TotalS / n,
		"detect.scan_forest_s":   tot["detect.scan_forest"].TotalS / n,
		"detect.scan_direct_s":   diag["detect.scan_direct"].TotalS,
		"detect.alarms":          float64(f.last.alarms),
		"sweep.prepare_s":        diag["sweep.prepare"].TotalS,
		"sweep.run_s":            diag["sweep.run"].TotalS,
		"sweep.shard_skew":       f.diags.shardSkew,
		"sweep.steals":           float64(f.diags.steals),
		"sweep.nan_excluded":     float64(f.diags.nanExcluded),
	}
}

func (f *fleetInst) shape() shape {
	s := f.sh
	s.Samples = f.last.samples
	return s
}
