package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hddcart"
)

func TestSeedChangesInputs(t *testing.T) {
	cut := weekCut(periodEnd, fleetLookback, fleetFailedWeeks)
	gen := func(seed int64) []genDrive {
		d, err := generate(seed, 0.002, 0.01, cut)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, again, b := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("a different seed generated the same inputs")
	}
	for _, d := range a {
		if d.drive.Failed && len(d.windows) != fleetFailedWeeks || !d.drive.Failed && len(d.windows) != fleetGoodWeeks {
			t.Errorf("drive %s: %d windows", d.drive.Serial, len(d.windows))
		}
		for _, w := range d.windows {
			if n := len(w); n == 0 || w[n-1].Hour-w[0].Hour >= periodEnd+fleetLookback {
				t.Errorf("drive %s: window of %d records spans too much", d.drive.Serial, n)
			}
		}
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload once untraced and
// once traced, on seeds other than the default, and checks that the
// outputs pass their checks and every listed metric is reported.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		for traced, defs := range [][]metricDef{endToEnd, perLayer} {
			seed := "2"
			if traced == 1 {
				seed = "3"
			}
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", seed, "--seconds", "0.5",
				"--trace", string(rune('0' + traced)), "--out", t.TempDir()}
			code, err := run(args, &stdout, &stderr)
			if code != 0 || err != nil {
				t.Fatalf("%s trace=%d: exit %d, %v\n%s", w.name, traced, code, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct %v attempted %d failed %d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s missing or unit %q", w.name, traced, d.name, m.Unit)
				}
				if traced == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestEvaluateMatchesHddpred runs `hddpred evaluate` on the evaluate
// workload's CSV with its CT and RT and compares the printed results.
func TestEvaluateMatchesHddpred(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/hddpred")
	}
	dir := t.TempDir()
	inst, err := setupEvaluate(5, spanRef{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	e := inst.(*evaluateInst)
	p, err := e.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "traces.csv")
	if err := os.WriteFile(csvPath, e.csv, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "hddpred")
	if out, err := exec.Command("go", "build", "-o", bin, "hddcart/cmd/hddpred").CombinedOutput(); err != nil {
		t.Fatalf("build hddpred: %v\n%s", err, out)
	}
	for k, tree := range map[int]*hddcart.Tree{0: e.m.ct, 1: e.m.rt} {
		model, err := json.Marshal(map[string]any{"type": modelNames[k], "tree": tree})
		if err != nil {
			t.Fatal(err)
		}
		modelPath := filepath.Join(dir, modelNames[k]+".json")
		if err := os.WriteFile(modelPath, model, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "evaluate", "-data", csvPath, "-m", modelPath).Output()
		if err != nil {
			t.Fatalf("hddpred evaluate %s: %v", modelNames[k], err)
		}
		if got, want := strings.TrimSpace(string(out)), p.results[k].String(); got != want {
			t.Errorf("%s: hddpred printed %q, the benchmark computed %q", modelNames[k], got, want)
		}
	}
}
