package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hddcart"
	"hddcart/internal/serve"
)

// Serve sizing. Every simulated good drive yields serveGoodWindows
// disjoint windows of serveTicks hours and every failed drive the
// serveFailedWindows windows before its failure; each window is a drive
// of its own with its own serial, and the failed scale is raised by the
// same ratio so the failed share stays the paper's.
const (
	serveScale         = 0.0238 // ≈ 6,100 monitored drives
	serveTicks         = 128    // hourly ticks replayed per drive
	serveGoodWindows   = 10     // 1344 h / 128 h
	serveFailedWindows = 3      // 480 h / 128 h
	warmTicks          = 24     // history (8 h) and the 11-vote window fill before these
	serveShards        = serve.DefaultShards
	microDrives        = 512 // drives whose streams time Extract and Predict
)

// serveFleet is the drive population both serve workloads replay: one
// record stream per drive, replayed one record per drive per tick.
type serveFleet struct {
	m       *models
	serials []string
	streams [][]hddcart.Record
	sh      shape
	snap    string // snapshot file path
}

func newServeFleet(seed int64, root spanRef, dir string) (*serveFleet, error) {
	drives, err := generate(seed, serveScale, serveScale*serveGoodWindows/serveFailedWindows,
		weekCut(serveTicks, 0, serveFailedWindows))
	if err != nil {
		return nil, err
	}
	m, err := train(drives, root)
	if err != nil {
		return nil, err
	}
	dropTraining(drives)
	f := &serveFleet{m: m, snap: filepath.Join(dir, "serve.snap")}
	failed := 0
	for _, d := range drives {
		for k, w := range d.windows {
			if len(w) == 0 {
				continue
			}
			f.serials = append(f.serials, fmt.Sprintf("%s-w%02d", d.drive.Serial, k))
			f.streams = append(f.streams, w)
			f.sh.Records += len(w)
			if d.drive.Failed {
				failed++
			}
		}
	}
	f.sh.Drives = len(f.streams)
	f.sh.FailedShare = float64(failed) / float64(len(f.streams))
	return f, nil
}

// monitorConfig is the service's per-shard monitor: the compiled CT with
// the paper's voting window.
func (f *serveFleet) monitorConfig() hddcart.MonitorConfig {
	return hddcart.MonitorConfig{Features: f.m.features, Model: f.m.ct, Voters: voters}
}

// newServer starts a fresh service that starts cold; with snapshots it
// snapshots to the fleet's file, which is removed first.
func (f *serveFleet) newServer(snapshots bool) (*serve.Server, error) {
	cfg := f.serveConfig()
	if !snapshots {
		cfg.SnapshotPath = ""
	} else if err := os.Remove(f.snap); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return serve.New(cfg)
}

func (f *serveFleet) serveConfig() serve.Config {
	cfg := f.monitorConfig()
	return serve.Config{
		Shards:       serveShards,
		NewMonitor:   func() (*hddcart.Monitor, error) { return hddcart.NewMonitor(cfg) },
		SnapshotPath: f.snap,
	}
}

// restore times serve.New restoring the snapshot file the last Close
// wrote, and checks the restored service holds the same observations.
func (f *serveFleet) restore(root spanRef, want hddcart.MonitorStats) (time.Duration, error) {
	sp := root.child("serve.restore")
	start := time.Now()
	srv, err := serve.New(f.serveConfig())
	d := time.Since(start)
	sp.end()
	if err != nil {
		return 0, err
	}
	m := srv.Metrics()
	if err := srv.Close(); err != nil {
		return 0, err
	}
	if !m.SnapshotRestored || m.Totals.Monitor != want {
		return 0, fmt.Errorf("restore: restored=%v stats %+v, want %+v", m.SnapshotRestored, m.Totals.Monitor, want)
	}
	return d, nil
}

// driveOracle is what one hddcart.Monitor, fed every drive's stream on
// one goroutine, raises. A drive warns at most once, and whether it does
// depends only on its own stream, so the warnings of any per-drive prefix
// of the streams follow from one replay.
type driveOracle struct {
	at        []int // index of the record that raised drive i's warning, -1 for none
	warnings  []hddcart.MonitorWarning
	observeNS float64 // time per Observe call
}

func newDriveOracle(cfg hddcart.MonitorConfig, serials []string, streams [][]hddcart.Record) (*driveOracle, error) {
	mon, err := hddcart.NewMonitor(cfg)
	if err != nil {
		return nil, err
	}
	o := &driveOracle{at: make([]int, len(streams)), warnings: make([]hddcart.MonitorWarning, len(streams))}
	ticks := 0
	for i, st := range streams {
		o.at[i] = -1
		ticks = max(ticks, len(st))
	}
	// Tick by tick, as the service sees the records.
	n := 0
	start := time.Now()
	for t := 0; t < ticks; t++ {
		for i, st := range streams {
			if t >= len(st) {
				continue
			}
			if w, ok := mon.Observe(serials[i], st[t]); ok {
				o.at[i], o.warnings[i] = t, w
			}
			n++
		}
	}
	o.observeNS = float64(time.Since(start).Nanoseconds()) / float64(max(n, 1))
	return o, nil
}

// expect returns the sorted warnings of the streams' prefixes
// [0, upto[i]).
func (o *driveOracle) expect(upto []int) []hddcart.MonitorWarning {
	var ws []hddcart.MonitorWarning
	for i, k := range o.at {
		if k >= 0 && k < upto[i] {
			ws = append(ws, o.warnings[i])
		}
	}
	serve.SortWarnings(ws)
	return ws
}

// sameWarnings compares two sorted warning feeds.
func sameWarnings(got, want []hddcart.MonitorWarning) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d warnings, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("warning %d is %+v, oracle %+v", i, got[i], want[i])
		}
	}
	return nil
}

// microLayers measures, on the first drives' streams, the per-record
// cost of feature extraction (FeatureSet.Extract) and of the compiled
// CT's Predict.
func (f *serveFleet) microLayers(v map[string]float64) {
	streams := f.streams[:min(len(f.streams), microDrives)]
	x := make([]float64, len(f.m.features))
	n := 0
	start := time.Now()
	for _, s := range streams {
		for i := range s {
			f.m.features.Extract(s, i, x)
			n++
		}
	}
	v["smart.extract_ns"] = float64(time.Since(start).Nanoseconds()) / float64(max(n, 1))
	var rows [][]float64
	for _, s := range streams {
		for i := range s {
			if f.m.features.Extract(s, i, x) {
				rows = append(rows, append([]float64(nil), x...))
			}
		}
	}
	ct := f.m.ct.Compile()
	sum := 0.0
	start = time.Now()
	for _, r := range rows {
		sum += ct.Predict(r)
	}
	v["cart.predict_ns"] = float64(time.Since(start).Nanoseconds()) / float64(max(len(rows), 1))
	if sum != sum {
		v["cart.predict_ns"] = 0 // a NaN score: the figure would be meaningless
	}
}

// monitorLayers fills the Monitor-level figures from service metrics.
func monitorLayers(v map[string]float64, m serve.Metrics) {
	st := m.Totals.Monitor
	if st.Observed > 0 {
		v["hddcart.scored_frac"] = float64(st.Scored) / float64(st.Observed)
	}
	v["hddcart.repaired"] = float64(st.Repaired)
	v["hddcart.dropped"] = float64(st.DroppedOutOfOrder + st.DroppedDuplicate + st.DroppedInvalid + st.DroppedQuarantined)
	var maxA, sum float64
	for _, s := range m.Shards {
		maxA = max(maxA, float64(s.Accepted))
		sum += float64(s.Accepted)
	}
	if sum > 0 {
		v["serve.shard_skew"] = maxA / (sum / float64(len(m.Shards)))
	}
}

// fileSize returns a file's size in bytes, 0 when it cannot be read.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
