package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"hddcart"
	"hddcart/internal/health"
	"hddcart/internal/simulate"
)

// Paper constants the fixture and the evaluate path share with
// `hddpred train` / `hddpred evaluate` defaults.
const (
	periodEnd   = simulate.HoursPerWeek // good-drive observation window [0, 168)
	splitSeed   = 1                     // hddpred's -seed default: sample picks and failed-drive split
	trainFrac   = 0.7                   // failed-drive split and good-window train share
	voters      = 11                    // the paper's N
	rtThreshold = -0.3                  // RT mean-threshold cut
	forestTrees = 48
	maxBins     = 255
)

// paperGood and paperFailed are the simulated fleet's full-scale class
// sizes (families W and Q); their ratio is the paper's failed share.
const (
	paperGood   = 22790 + 2441
	paperFailed = 434 + 127
)

// genDrive is one simulated drive: its ground truth, the records that
// train the models, and the windows the workload replays. The full trace
// is dropped once both are cut, so the fixture keeps only replayed hours.
type genDrive struct {
	drive   simulate.Drive
	train   []hddcart.Record
	windows [][]hddcart.Record
}

// cutFunc picks the windows a workload replays from one drive's trace.
type cutFunc func(d *simulate.Drive, recs []hddcart.Record) [][]hddcart.Record

// generate builds a fleet from the seed and cuts every drive's trace on
// at most NumCPU goroutines: simulate's traces are independent per drive.
func generate(seed int64, goodScale, failedScale float64, cut cutFunc) ([]genDrive, error) {
	fleet, err := hddcart.GenerateFleet(hddcart.FleetConfig{Seed: seed, GoodScale: goodScale, FailedScale: failedScale})
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	ds := fleet.Drives()
	out := make([]genDrive, len(ds))
	workers := min(runtime.NumCPU(), len(ds))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ds); i += workers {
				d := ds[i]
				recs := fleet.Trace(i)
				g := genDrive{drive: d}
				if d.Failed {
					g.train = recs
				} else {
					g.train = clone(recs[:hoursBefore(recs, periodEnd)])
				}
				g.windows = cut(&d, recs)
				for k := range g.windows {
					g.windows[k] = clone(g.windows[k])
				}
				out[i] = g
			}
		}(w)
	}
	wg.Wait()
	return out, nil
}

func clone(recs []hddcart.Record) []hddcart.Record {
	return append([]hddcart.Record(nil), recs...)
}

// hoursBefore returns the number of leading records with Hour < h.
func hoursBefore(recs []hddcart.Record, h int) int {
	n := 0
	for n < len(recs) && recs[n].Hour < h {
		n++
	}
	return n
}

// hourRange returns the records with Hour in [lo, hi).
func hourRange(recs []hddcart.Record, lo, hi int) []hddcart.Record {
	a := hoursBefore(recs, lo)
	b := hoursBefore(recs, hi)
	return recs[a:b]
}

// weekCut splits a trace into disjoint windows of span hours, each
// preceded by lookback hours of history: good drives yield one window per
// whole span of their 56-day trace, failed drives the windows ending at
// failure. Every window becomes a drive of its own, so rows stay distinct
// while the simulator runs once per several fleet drives.
func weekCut(span, lookback, failedWindows int) cutFunc {
	return func(d *simulate.Drive, recs []hddcart.Record) [][]hddcart.Record {
		var out [][]hddcart.Record
		if d.Failed {
			for k := failedWindows; k >= 1; k-- {
				end := d.FailHour - (k-1)*span
				out = append(out, hourRange(recs, end-span-lookback, end))
			}
			return out
		}
		for start := lookback; start+span <= simulate.TotalHours; start += span {
			out = append(out, hourRange(recs, start-lookback, start+span))
		}
		return out
	}
}

// models are the paper's three trained models.
type models struct {
	features hddcart.FeatureSet
	ct, rt   *hddcart.Tree
	forest   *hddcart.Forest
}

// train builds the paper's training sets from the fixture (hddpred
// train's defaults) and fits the CT, the RT and the forest.
func train(drives []genDrive, root spanRef) (*models, error) {
	m := &models{features: hddcart.CriticalFeatures()}
	build := func(cfg hddcart.DatasetConfig) (*hddcart.Dataset, error) {
		sp := root.child("dataset.build")
		defer sp.end()
		b, err := hddcart.NewDatasetBuilder(cfg)
		if err != nil {
			return nil, err
		}
		for i := range drives {
			d := &drives[i]
			if d.drive.Failed {
				b.AddFailedDrive(d.drive.Index, d.drive.FailHour, d.train)
			} else {
				b.AddGoodDrive(d.drive.Index, d.train)
			}
		}
		return b.Finalize()
	}
	cfg := hddcart.DatasetConfig{
		Features: m.features, PeriodEnd: periodEnd, FailedWindowHours: 168,
		FailedShare: 0.2, Seed: splitSeed,
	}
	ds, err := build(cfg)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	sp := root.child("cart.train_ct")
	m.ct, err = hddcart.TrainClassificationTree(ds, hddcart.TreeParams{LossFA: 10})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("train ct: %w", err)
	}
	sp = root.child("forest.train")
	m.forest, err = hddcart.TrainRandomForest(ds, hddcart.ForestConfig{
		Trees: forestTrees, Seed: splitSeed, Params: hddcart.TreeParams{MaxBins: maxBins},
	})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("train forest: %w", err)
	}
	cfg.FailedSamplesPerDrive = 12
	rds, err := build(cfg)
	if err != nil {
		return nil, fmt.Errorf("train rt: %w", err)
	}
	if err := rds.SetHealthTargets(nil, health.DefaultWindowHours); err != nil {
		return nil, fmt.Errorf("train rt: %w", err)
	}
	sp = root.child("cart.train_rt")
	m.rt, err = hddcart.TrainRegressionTree(rds, hddcart.TreeParams{})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("train rt: %w", err)
	}
	return m, nil
}

// dropTraining releases the training slices once the models exist.
func dropTraining(drives []genDrive) {
	for i := range drives {
		drives[i].train = nil
	}
}

// shape is the fixture's size, printed with every run.
type shape struct {
	Drives      int     `json:"drives"`
	Records     int     `json:"records"`
	Samples     int     `json:"samples"`
	FailedShare float64 `json:"failed_share"`
}

func (s shape) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "fixture %s: %d drives, %d records, %d samples, failed share %.4f\n",
		workload, s.Drives, s.Records, s.Samples, s.FailedShare)
}
