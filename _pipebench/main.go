package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports from its untraced run.
// The headline throughput and median latency are each workload's own:
// see the workloads table in doc.go.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
}

// perLayer are the metrics every workload reports from its traced run. A
// layer the workload does not call reports 0.
var perLayer = []metricDef{
	{"trace.parse_s", "s"},
	{"trace.records_per_s", "1/s"},
	{"trace.alloc_bytes_per_record", "B/record"},
	{"detect.extract_s", "s"},
	{"detect.extract_samples", "count"},
	{"dataset.bin_s", "s"},
	{"dataset.quantize_s", "s"},
	{"cart.compile_s", "s"},
	{"detect.scan_ct_s", "s"},
	{"detect.scan_rt_s", "s"},
	{"detect.scan_forest_s", "s"},
	{"detect.scan_direct_s", "s"},
	{"detect.alarms", "count"},
	{"sweep.prepare_s", "s"},
	{"sweep.run_s", "s"},
	{"sweep.shard_skew", "ratio"},
	{"sweep.steals", "count"},
	{"sweep.nan_excluded", "count"},
	{"dataset.build_s", "s"},
	{"cart.train_ct_s", "s"},
	{"cart.train_rt_s", "s"},
	{"forest.train_s", "s"},
	{"hddcart.observe_ns", "ns"},
	{"hddcart.scored_frac", "ratio"},
	{"hddcart.repaired", "count"},
	{"hddcart.dropped", "count"},
	{"smart.extract_ns", "ns"},
	{"cart.predict_ns", "ns"},
	{"serve.ingest_ns", "ns"},
	{"serve.retries", "count"},
	{"serve.drain_ms", "ms"},
	{"serve.warnings_ms", "ms"},
	{"serve.shard_skew", "ratio"},
	{"serve.snapshot_bytes_per_drive", "B/drive"},
	{"serve.snapshot_ms", "ms"},
	{"serve.restore_ms", "ms"},
	{"http.handler_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"http.status_429", "count"},
	{"http.parse_errors", "count"},
	{"bench.generator_lag_ms", "ms"},
	{"runtime.alloc_bytes_per_item", "B/item"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
}

// setupRuns is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move the figure.
const setupRuns = 3

// minPasses is the fewest timed passes a run makes, whatever its budget.
const minPasses = 3

// instance is a workload that has been set up and can be measured.
type instance interface {
	// measure runs timed passes for at least budget. With a tracer it
	// records spans around every call into the program.
	measure(budget time.Duration, tr *tracer) (*outcome, error)
	// check verifies the last measured outputs against the reference
	// computation; it runs outside every timed region.
	check(out *outcome) error
	// layers derives the per-layer metrics of a traced outcome.
	layers(out *outcome, spans []Span) map[string]float64
	// shape describes the fixture.
	shape() shape
}

// outcome is one measure call's result.
type outcome struct {
	attempted, failed int64
	items             int64   // units of work the throughput counts
	throughput        float64 // headline rate, items per second
	p50MS             float64
	named             map[string]float64 // the workload's own named figures
	checks            map[string]float64 // figures the output checks add
	mem               memSample
}

func newOutcome() *outcome {
	return &outcome{named: map[string]float64{}, checks: map[string]float64{}}
}

// workload is one named traffic mix.
type workload struct {
	name  string
	setup func(seed int64, root spanRef, dir string) (instance, error)
}

var workloads = []workload{
	{"evaluate", setupEvaluate},
	{"fleet-scan", setupFleetScan},
	{"serve-direct", setupServeDirect},
	{"serve-http", setupServeHTTP},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
	}
	os.Exit(code)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: evaluate, fleet-scan, serve-direct or serve-http")
	seed := fs.Int64("seed", 1, "fixture seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceOn := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "pipebench-out"), "directory for spans and snapshots")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	dir := filepath.Join(*outDir, fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if *traceOn == 1 {
		tr = newTracer()
	}
	inst, setupS, err := setUp(wl, *seed, dir, tr)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stderr, "peak rss during set-up: %.0f MB\n", peakRSSMB())
	resetPeakRSS()

	hostBefore := hostLoopMS()
	budget := time.Duration(*seconds * float64(time.Second))
	var out *outcome
	metrics := map[string]metricValue{}
	report := map[string]any{"workload": wl.name, "seed": *seed, "machine": machineContext()}
	if tr == nil {
		if out, err = inst.measure(budget, nil); err != nil {
			return 1, err
		}
		vals := map[string]float64{
			"setup_s": setupS, "peak_rss_mb": peakRSSMB(),
			"throughput_per_s": out.throughput, "p50_ms": out.p50MS,
		}
		for _, m := range endToEnd {
			metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		// The overhead compares two halves of the same budget: untraced,
		// then traced.
		plain, err := inst.measure(budget/2, nil)
		if err != nil {
			return 1, err
		}
		if out, err = inst.measure(budget/2, tr); err != nil {
			return 1, err
		}
		spans := tr.snapshot()
		vals := inst.layers(out, spans)
		totals := totalsByName(spans)
		for _, n := range []string{"dataset.build", "cart.train_ct", "cart.train_rt", "forest.train"} {
			vals[n+"_s"] = totals[n].TotalS / setupRuns
		}
		vals["runtime.alloc_bytes_per_item"] = float64(out.mem.alloc) / float64(max(out.items, 1))
		vals["runtime.gc_cycles"] = float64(out.mem.gcs)
		vals["runtime.gc_pause_ms"] = float64(out.mem.pauseNS) / 1e6
		vals["bench.trace_overhead"] = plain.throughput/out.throughput - 1
		for _, m := range perLayer {
			metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	}

	out.named["host_loop_ms"] = (hostBefore + hostLoopMS()) / 2
	inst.shape().print(stderr, wl.name)
	report["shape"] = inst.shape()
	checkErr := inst.check(out)
	named := map[string]metricValue{}
	for k, v := range out.named {
		named[k] = metricValue{v, unitOf(k)}
	}
	report["named"] = named
	report["checks"] = out.checks
	report["attempted"], report["failed"] = out.attempted, out.failed
	if tr != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, *seed))
		if err := writeSpans(path, tr.snapshot(), report); err != nil {
			return 1, err
		}
		fmt.Fprintln(stderr, "spans written to", path)
	}
	if enc, err := json.Marshal(report); err == nil {
		fmt.Fprintln(stdout, string(enc))
	}
	res := result{Correct: checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	enc, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(enc))
	if checkErr != nil {
		return 1, fmt.Errorf("output check failed: %w", checkErr)
	}
	return 0, nil
}

// setUp builds the workload setupRuns times and keeps the last instance;
// it returns the median set-up time.
func setUp(wl *workload, seed int64, dir string, tr *tracer) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupRuns; i++ {
		// Every set-up starts from the same collected heap, with the
		// previous instance released, so the timings compare.
		inst = nil
		debug.FreeOSMemory()
		start := time.Now()
		root := tr.root("setup")
		next, err := wl.setup(seed, root, dir)
		root.end()
		if err != nil {
			return nil, 0, fmt.Errorf("setup %s: %w", wl.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		inst = next
	}
	runtime.GC()
	return inst, median(times), nil
}

// unitOf infers a named figure's unit from its suffix.
func unitOf(name string) string {
	suffixes := []struct{ suf, unit string }{
		{"_per_s", "1/s"}, {"_ms", "ms"}, {"_ns", "ns"}, {"_s", "s"}, {"_mb", "MB"},
	}
	for _, s := range suffixes {
		if len(name) > len(s.suf) && name[len(name)-len(s.suf):] == s.suf {
			return s.unit
		}
	}
	return "count"
}
