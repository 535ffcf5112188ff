package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hddcart"
	"hddcart/internal/serve"
)

// snapshotEvery is the tick interval between SnapshotNow calls after the
// warm-up ticks: one snapshot per measured replay.
const snapshotEvery = 64

// replaySeconds sizes serve-direct runs: one measured replay per
// replaySeconds of budget, at least one. The count follows from the
// budget alone, so every run of one budget does the same work, and the
// ticks of several replays spread the figures over the whole budget.
const replaySeconds = 2

// serveDirectInst replays hourly ticks into an in-process serve.Server:
// each tick ingests one record per drive from NumCPU producers, then
// drains the shards and collects the warning feed (a closed loop).
// Snapshots are taken between ticks, and the last replay's final
// snapshot is restored into a new server.
type serveDirectInst struct {
	*serveFleet
	last   []directReplay // the last measure call's replays
	oracle *driveOracle
}

// directReplay is one full replay's measurements.
type directReplay struct {
	ticks     []time.Duration // ticks at or after warmTicks
	rates     []float64       // those ticks' records per second
	attempts  int64           // every Ingest call, retries included
	sent      int64           // records ingested in all ticks
	retries   int64
	closed    int64
	snapshots []time.Duration
	restore   time.Duration
	warnings  []hddcart.MonitorWarning
	metrics   serve.Metrics
	snapBytes int64
}

func setupServeDirect(seed int64, root spanRef, dir string) (instance, error) {
	f, err := newServeFleet(seed, root, dir)
	if err != nil {
		return nil, err
	}
	return &serveDirectInst{serveFleet: f}, nil
}

// replay runs every tick through a fresh server. A measured replay also
// takes snapshots, and the last one restores its final snapshot into a
// new server; the warm-up replay does neither.
func (s *serveDirectInst) replay(tr *tracer, measured, restore bool) (directReplay, error) {
	var r directReplay
	srv, err := s.newServer(measured)
	if err != nil {
		return r, err
	}
	producers := runtime.NumCPU()
	per := (len(s.streams) + producers - 1) / producers
	var retries, closed, sent atomic.Int64
	for t := 0; t < serveTicks; t++ {
		root := tr.root("serve.tick")
		start := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				sp := root.child("serve.ingest")
				defer sp.end()
				var n, retry, shut int64
				for i := lo; i < hi; i++ {
					if t >= len(s.streams[i]) {
						continue
					}
					n++
					for {
						d := srv.Ingest(s.serials[i], s.streams[i][t])
						if d == serve.Accepted {
							break
						}
						if d == serve.Closed {
							shut++
							break
						}
						retry++
						runtime.Gosched()
					}
				}
				sent.Add(n)
				retries.Add(retry)
				closed.Add(shut)
			}(p*per, min((p+1)*per, len(s.streams)))
		}
		wg.Wait()
		sp := root.child("serve.drain")
		srv.Drain()
		sp.end()
		sp = root.child("serve.warnings")
		r.warnings = append(r.warnings, srv.Warnings()...)
		sp.end()
		d := time.Since(start)
		root.end()
		if t >= warmTicks {
			r.ticks = append(r.ticks, d)
			r.rates = append(r.rates, float64(tickRecords(s.streams, t))/d.Seconds())
			if measured && (t-warmTicks)%snapshotEvery == snapshotEvery-1 {
				sp := tr.root("serve.snapshot")
				start := time.Now()
				err := srv.SnapshotNow()
				r.snapshots = append(r.snapshots, time.Since(start))
				sp.end()
				if err != nil {
					srv.Close()
					return r, err
				}
			}
		}
	}
	r.metrics = srv.Metrics()
	if err := srv.Close(); err != nil {
		return r, err
	}
	r.retries, r.closed, r.sent = retries.Load(), closed.Load(), sent.Load()
	r.attempts = r.sent + r.retries
	if !restore {
		return r, nil
	}
	r.snapBytes = fileSize(s.snap)
	r.restore, err = s.restore(tr.root("serve.restore_pass"), r.metrics.Totals.Monitor)
	return r, err
}

// tickRecords counts the drives that have a record at tick t.
func tickRecords(streams [][]hddcart.Record, t int) int64 {
	var n int64
	for _, st := range streams {
		if t < len(st) {
			n++
		}
	}
	return n
}

func (s *serveDirectInst) measure(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	// One untimed replay first lets the heap and the shard maps grow to
	// their working size, which every later replay starts from.
	if _, err := s.replay(nil, false, false); err != nil {
		return nil, fmt.Errorf("serve-direct warm-up: %w", err)
	}
	s.last = nil
	mem := readMem()
	var ticks, rates, snaps []float64
	for n := max(1, int(budget.Seconds()/replaySeconds)); len(s.last) < n; {
		runtime.GC()
		r, err := s.replay(tr, true, len(s.last) == n-1)
		if err != nil {
			return nil, fmt.Errorf("serve-direct replay: %w", err)
		}
		s.last = append(s.last, r)
		out.attempted += r.sent
		out.failed += r.closed
		out.items += r.sent
		rates = append(rates, r.rates...)
		ticks = append(ticks, durationsMS(r.ticks)...)
		snaps = append(snaps, durationsMS(r.snapshots)...)
	}
	restore := s.last[len(s.last)-1].restore
	out.mem = mem.since()
	// The median tick's rate: a slow spell of the host during a few
	// ticks does not move it.
	out.throughput = median(rates)
	out.p50MS = median(ticks)
	out.named["tick_p50_ms"] = out.p50MS
	out.named["tick_p90_ms"] = percentile(ticks, 90)
	out.named["ticks"] = float64(len(ticks))
	out.named["snapshot_pause_ms"] = median(snaps)
	out.named["restore_ms"] = float64(restore.Nanoseconds()) / 1e6
	return out, nil
}

func (s *serveDirectInst) driveOracle() (*driveOracle, error) {
	if s.oracle == nil {
		o, err := newDriveOracle(s.monitorConfig(), s.serials, s.streams)
		if err != nil {
			return nil, err
		}
		s.oracle = o
	}
	return s.oracle, nil
}

// check compares every measured replay's warning feed with one Monitor
// replaying the same streams serially, and the ingest accounting with
// the records sent.
func (s *serveDirectInst) check(out *outcome) error {
	o, err := s.driveOracle()
	if err != nil {
		return err
	}
	upto := make([]int, len(s.streams))
	for i, st := range s.streams {
		upto[i] = len(st)
	}
	want := o.expect(upto)
	for _, r := range s.last {
		got := append([]hddcart.MonitorWarning(nil), r.warnings...)
		serve.SortWarnings(got)
		if err := sameWarnings(got, want); err != nil {
			return fmt.Errorf("serve-direct: %w", err)
		}
		tot := r.metrics.Totals
		if tot.Accepted+tot.Rejected != r.attempts || tot.Accepted != r.sent {
			return fmt.Errorf("serve-direct: accepted %d + rejected %d, want %d attempts of %d records",
				tot.Accepted, tot.Rejected, r.attempts, r.sent)
		}
	}
	out.checks["warnings"] = float64(len(want))
	return nil
}

func (s *serveDirectInst) layers(out *outcome, spans []Span) map[string]float64 {
	v := map[string]float64{}
	var sent, retries int64
	for _, r := range s.last {
		sent += r.sent
		retries += r.retries
	}
	ticks, n := passTotals(spans, "serve.tick")
	if n > 0 {
		v["serve.drain_ms"] = ticks["serve.drain"].TotalS * 1e3 / float64(n)
		v["serve.warnings_ms"] = ticks["serve.warnings"].TotalS * 1e3 / float64(n)
	}
	if sent > 0 {
		v["serve.ingest_ns"] = ticks["serve.ingest"].TotalS * 1e9 / float64(sent)
	}
	v["serve.retries"] = float64(retries)
	snaps, ns := passTotals(spans, "serve.snapshot")
	if ns > 0 {
		v["serve.snapshot_ms"] = snaps["serve.snapshot"].TotalS * 1e3 / float64(ns)
	}
	if len(s.last) > 0 {
		final := &s.last[len(s.last)-1]
		v["serve.snapshot_bytes_per_drive"] = float64(final.snapBytes) / float64(len(s.streams))
		v["serve.restore_ms"] = float64(final.restore.Nanoseconds()) / 1e6
		monitorLayers(v, final.metrics)
	}
	if o, err := s.driveOracle(); err == nil {
		v["hddcart.observe_ns"] = o.observeNS
	}
	s.microLayers(v)
	return v
}

func (s *serveDirectInst) shape() shape {
	sh := s.sh
	if len(s.last) > 0 {
		sh.Samples = s.last[0].metrics.Totals.Monitor.Scored
	}
	return sh
}
