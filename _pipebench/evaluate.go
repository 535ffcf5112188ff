package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"hddcart"
	"hddcart/internal/simulate"
	"hddcart/internal/trace"
)

// evalScale sizes the evaluate fleet as a share of the paper's 25,792
// drives, failed and good alike, so the failed share is the paper's.
const evalScale = 0.05

// evalFrom is the first good-drive hour the evaluate CSV keeps: the test
// window starts at the 70% cut of [0, 168) and change rates look back 6 h,
// so a day of margin keeps every extracted sample identical to the full
// trace's.
const evalFrom = periodEnd*7/10 - 24

// evaluateInst repeats `hddpred evaluate`'s default path: the fleet is
// native-trace CSV bytes in memory, and a pass parses it, splits off the
// test drives, extracts their series and scans them with the compiled CT
// (voting), RT (mean threshold) and forest (voting).
type evaluateInst struct {
	m       *models
	csv     []byte
	records int
	dets    [3]hddcart.Detector // ct, rt, forest over compiled models
	sh      shape

	last evalPass // the last pass, for the output check
}

var modelNames = [3]string{"ct", "rt", "forest"}

type evalPass struct {
	drives  []trace.DriveTrace
	series  []hddcart.Series
	fail    []int
	results [3]hddcart.Result
	samples int
	alarms  int
}

func setupEvaluate(seed int64, root spanRef, _ string) (instance, error) {
	drives, err := generate(seed, evalScale, evalScale, func(d *simulate.Drive, recs []hddcart.Record) [][]hddcart.Record {
		if d.Failed {
			return [][]hddcart.Record{recs}
		}
		return [][]hddcart.Record{hourRange(recs, evalFrom, periodEnd)}
	})
	if err != nil {
		return nil, err
	}
	m, err := train(drives, root)
	if err != nil {
		return nil, err
	}
	dropTraining(drives)
	e := &evaluateInst{m: m}
	e.csv, e.records, err = encodeCSV(drives)
	if err != nil {
		return nil, err
	}
	sp := root.child("cart.compile")
	e.dets, err = floatDetectors(m, true)
	sp.end()
	if err != nil {
		return nil, err
	}
	failed := 0
	for _, d := range drives {
		if d.drive.Failed {
			failed++
		}
	}
	e.sh = shape{Drives: len(drives), Records: e.records, FailedShare: float64(failed) / float64(len(drives))}
	return e, nil
}

// floatDetectors returns the CT, RT and forest detectors, over compiled
// models or (compiled = false) the pointer models the oracle scores.
func floatDetectors(m *models, compiled bool) ([3]hddcart.Detector, error) {
	var ps [3]hddcart.Predictor = [3]hddcart.Predictor{m.ct, m.rt, m.forest}
	var out [3]hddcart.Detector
	for i, p := range ps {
		if compiled {
			p = hddcart.CompileModel(p)
		}
		var err error
		if i == 1 {
			out[i], err = hddcart.NewMeanThresholdDetector(p, voters, rtThreshold)
		} else {
			out[i], err = hddcart.NewVotingDetector(p, voters, 0)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// encodeCSV writes the drives as one native-trace CSV document; chunks of
// drives encode on NumCPU goroutines and join in drive order.
func encodeCSV(drives []genDrive) ([]byte, int, error) {
	workers := min(runtime.NumCPU(), len(drives))
	chunks := make([]bytes.Buffer, workers)
	errs := make([]error, workers)
	per := (len(drives) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tw := trace.NewWriter(&chunks[w])
			for i := w * per; i < min((w+1)*per, len(drives)); i++ {
				d := &drives[i].drive
				meta := trace.DriveMeta{Serial: d.Serial, Family: d.Family, Failed: d.Failed, FailHour: d.FailHour}
				if err := tw.WriteDrive(meta, drives[i].windows[0]); err != nil {
					errs[w] = err
					return
				}
			}
			errs[w] = tw.Flush()
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, fmt.Errorf("encode csv: %w", err)
	}
	var doc bytes.Buffer
	records := 0
	for w := range chunks {
		b := chunks[w].Bytes()
		if w > 0 {
			// Every chunk's writer emitted the header; keep the first.
			b = b[bytes.IndexByte(b, '\n')+1:]
		}
		doc.Write(b)
		records += bytes.Count(b, []byte{'\n'})
	}
	return doc.Bytes(), records - 1, nil
}

// pass runs the evaluate path once.
func (e *evaluateInst) pass(tr *tracer) (evalPass, error) {
	var p evalPass
	root := tr.root("evaluate.pass")
	defer root.end()
	sp := root.child("trace.parse")
	r, err := trace.NewReader(bytes.NewReader(e.csv))
	if err != nil {
		sp.end()
		return p, err
	}
	p.drives, err = r.ReadAll()
	sp.end()
	if err != nil {
		return p, err
	}
	sp = root.child("detect.extract")
	for i, d := range p.drives {
		if d.Meta.Failed {
			if hddcart.IsTrainFailedDrive(splitSeed, i, trainFrac) {
				continue
			}
			p.series = append(p.series, hddcart.ExtractSeries(e.m.features, d.Records, 0, len(d.Records)))
			p.fail = append(p.fail, d.Meta.FailHour)
			continue
		}
		from, to, ok := hddcart.TestStart(d.Records, 0, periodEnd, trainFrac)
		if !ok {
			continue
		}
		p.series = append(p.series, hddcart.ExtractSeries(e.m.features, d.Records, from, to))
		p.fail = append(p.fail, -1)
	}
	sp.end()
	for _, s := range p.series {
		p.samples += len(s.X)
	}
	for k, det := range e.dets {
		sp = root.child("detect.scan_" + modelNames[k])
		outs := hddcart.ScanBatch(det, p.series, p.fail, runtime.NumCPU())
		sp.end()
		p.results[k] = tally(outs, p.fail)
		p.alarms += p.results[k].GoodAlarmed + p.results[k].FailedDetected
	}
	return p, nil
}

// tally folds outcomes into FAR/FDR/TIA as hddpred evaluate does.
func tally(outs []hddcart.Outcome, fail []int) hddcart.Result {
	var c hddcart.Counter
	for i, o := range outs {
		if fail[i] >= 0 {
			c.AddFailed(o)
		} else {
			c.AddGood(o.Alarmed)
		}
	}
	return c.Result()
}

func (e *evaluateInst) measure(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var times []float64
	mem := readMem()
	start := time.Now()
	for len(times) < minPasses || time.Since(start) < budget {
		e.last = evalPass{}
		runtime.GC()
		t := time.Now()
		p, err := e.pass(tr)
		if err != nil {
			return nil, fmt.Errorf("evaluate pass: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		out.attempted += int64(e.records)
		e.last = p
	}
	out.mem = mem.since()
	out.items = out.attempted
	// Both figures come from the median pass, so a slow spell of the
	// host during a few passes moves neither.
	out.throughput = float64(e.records) / median(times)
	out.p50MS = median(times) * 1e3
	out.named["evaluate_records_per_s"] = out.throughput
	out.named["passes"] = float64(len(times))
	return out, nil
}

// check compares every model's FAR/FDR/TIA with the pointer-model oracle
// (hddcart.Scan per drive, uncompiled tree and forest).
func (e *evaluateInst) check(out *outcome) error {
	oracle, err := floatDetectors(e.m, false)
	if err != nil {
		return err
	}
	for k, det := range oracle {
		outs := make([]hddcart.Outcome, len(e.last.series))
		for i, s := range e.last.series {
			outs[i] = hddcart.Scan(det, s, e.last.fail[i])
		}
		want := tally(outs, e.last.fail)
		if got := e.last.results[k]; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("evaluate %s: got %s, oracle %s", modelNames[k], got, want)
		}
		out.checks["far_"+modelNames[k]] = want.FAR()
	}
	return nil
}

func (e *evaluateInst) layers(out *outcome, spans []Span) map[string]float64 {
	tot, passes := passTotals(spans, "evaluate.pass")
	n := float64(max(passes, 1))
	v := map[string]float64{
		"trace.parse_s":          tot["trace.parse"].TotalS / n,
		"detect.extract_s":       tot["detect.extract"].TotalS / n,
		"detect.extract_samples": float64(e.last.samples),
		"detect.scan_ct_s":       tot["detect.scan_ct"].TotalS / n,
		"detect.scan_rt_s":       tot["detect.scan_rt"].TotalS / n,
		"detect.scan_forest_s":   tot["detect.scan_forest"].TotalS / n,
		"detect.alarms":          float64(e.last.alarms),
	}
	setup, _ := passTotals(spans, "setup")
	v["cart.compile_s"] = setup["cart.compile"].TotalS / setupRuns
	if ps := v["trace.parse_s"]; ps > 0 {
		v["trace.records_per_s"] = float64(e.records) / ps
	}
	v["trace.alloc_bytes_per_record"] = e.parseAllocPerRecord()
	return v
}

// parseAllocPerRecord measures the parser's allocation per record over
// one extra parse, outside every timed pass.
func (e *evaluateInst) parseAllocPerRecord() float64 {
	mem := readMem()
	r, err := trace.NewReader(bytes.NewReader(e.csv))
	if err != nil {
		return 0
	}
	if _, err := r.ReadAll(); err != nil {
		return 0
	}
	return float64(mem.since().alloc) / float64(e.records)
}

func (e *evaluateInst) shape() shape {
	s := e.sh
	s.Samples = e.last.samples
	return s
}
