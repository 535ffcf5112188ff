package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hddcart"
	"hddcart/internal/faultinject"
	"hddcart/internal/serve"
)

// serve-http traffic. One connection keeps the generator from competing
// with the service's shards for a small machine's cores, so the figures
// follow the service rather than the scheduler. The offered rate is about
// half the one-connection closed-loop capacity (≈ 63,000 records/s)
// measured on a 2-core Xeon when this benchmark was added, so the open
// loop measures latency below saturation. The fleet's lines last about
// 17 s at these shares: a longer budget ends the last open-loop round
// early.
const (
	httpConns     = 1
	batchLines    = 64    // JSONL records per POST
	offeredRate   = 32000 // open-loop records per second, all connections
	faultSeverity = 0.005 // per injector; three injectors fault ≈ 1.5% of records
	closedShare   = 0.25  // share of the budget in the closed-loop phase
	closedLines   = 0.3   // the closed loop posts at most this share of the lines
	httpRounds    = 4     // closed-then-open rounds, so each phase samples the whole run
	spanHeader    = "X-Pipebench-Span"
)

// faults are the injectors whose damage JSON can carry: re-delivered and
// swapped hours exercise the Monitor's drop path, finite out-of-domain
// values its repair path.
var faults = []faultinject.Injector{
	faultinject.DuplicateSamples(),
	faultinject.ReorderSamples(),
	faultinject.CorruptOutOfRange(),
}

// serveHTTPInst is the serve-direct service behind Handler() on a
// loopback http.Server, fed by an in-process generator over httpConns
// connections.
type serveHTTPInst struct {
	*serveFleet
	conns  []*connStream
	warm   [][]hddcart.Record // each drive's warm-up ticks
	lens   []int              // each drive's stream length
	oracle *driveOracle
	last   httpRun
}

// connStream is one connection's share of the drives: its records in
// tick-major order, pre-encoded as JSONL batches.
type connStream struct {
	lines   []lineRef // every line's drive and tick, in send order
	batches [][]byte  // batches[k] holds lines [k*batchLines, ...)
}

type lineRef struct{ drive, tick int }

// httpRun is one run's measurements.
type httpRun struct {
	posts, failedPosts, fail429     int64
	parseErrors, accepted, rejected int64
	linesSent                       int64
	sentLines                       []int // per connection: lines posted
	closedRate                      float64
	latencies, lags                 []float64 // open-loop ms
	warnings                        []hddcart.MonitorWarning
	metrics                         serve.Metrics
}

func setupServeHTTP(seed int64, root spanRef, dir string) (instance, error) {
	f, err := newServeFleet(seed, root, dir)
	if err != nil {
		return nil, err
	}
	for i, st := range f.streams {
		st = roundRecords(st)
		for _, inj := range faults {
			rng := rand.New(rand.NewSource(faultinject.SeedFor(seed, inj.Name, f.serials[i])))
			st = inj.Apply(rng, st, faultSeverity)
		}
		f.streams[i] = st
	}
	s := &serveHTTPInst{serveFleet: f}
	nc := httpConns
	s.conns = make([]*connStream, nc)
	for c := range s.conns {
		s.conns[c] = &connStream{}
	}
	for t := warmTicks; t < serveTicks; t++ {
		for i, st := range f.streams {
			if t < len(st) {
				cs := s.conns[i%nc]
				cs.lines = append(cs.lines, lineRef{i, t})
			}
		}
	}
	// A collection before encoding bounds the heap the encoder grows into
	// by twice the streams rather than twice everything set-up has
	// allocated so far.
	runtime.GC()
	var wg sync.WaitGroup
	for _, cs := range s.conns {
		wg.Add(1)
		go func(cs *connStream) {
			defer wg.Done()
			var buf []byte
			for k, l := range cs.lines {
				buf = appendLine(buf, f.serials[l.drive], &f.streams[l.drive][l.tick])
				if (k+1)%batchLines == 0 || k == len(cs.lines)-1 {
					cs.batches = append(cs.batches, buf)
					buf = nil
				}
			}
		}(cs)
	}
	wg.Wait()
	// The oracle's per-drive verdicts replace the streams: only the
	// warm-up ticks and a few drives for the per-record figures stay.
	if s.oracle, err = newDriveOracle(f.monitorConfig(), f.serials, f.streams); err != nil {
		return nil, err
	}
	s.warm = make([][]hddcart.Record, len(f.streams))
	s.lens = make([]int, len(f.streams))
	for i, st := range f.streams {
		s.warm[i] = clone(st[:min(warmTicks, len(st))])
		s.lens[i] = len(st)
	}
	f.streams = append([][]hddcart.Record(nil), f.streams[:min(microDrives, len(f.streams))]...)
	return s, nil
}

// roundRecords rounds every value to 4 decimals in place, so JSON lines
// stay short and decode to exactly the values the oracle replays.
func roundRecords(recs []hddcart.Record) []hddcart.Record {
	for i := range recs {
		r := &recs[i]
		for k := range r.Normalized {
			r.Normalized[k] = round4(r.Normalized[k])
			r.Raw[k] = round4(r.Raw[k])
		}
	}
	return recs
}

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// appendLine encodes one record as a serve JSONL ingest line.
func appendLine(b []byte, serial string, r *hddcart.Record) []byte {
	b = append(b, `{"serial":`...)
	b = strconv.AppendQuote(b, serial)
	b = append(b, `,"hour":`...)
	b = strconv.AppendInt(b, int64(r.Hour), 10)
	b = append(b, `,"normalized":[`...)
	for k, v := range r.Normalized {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, `],"raw":[`...)
	for k, v := range r.Raw {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, "]}\n"...)
}

// timedHandler wraps the service handler: in traced runs it records a
// server-side span per request, as a child of the client span named in
// the request header.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	sp := spanRef{}
	if err == nil {
		sp = h.tr.childOf(parent, "http.handler")
	}
	h.next.ServeHTTP(w, r)
	sp.end()
}

// poster sends one connection's batches.
type poster struct {
	client *http.Client
	url    string
	tr     *tracer
	run    *httpRun
	mu     *sync.Mutex
}

// post sends one batch and accounts for its outcome; it returns the
// request's duration.
func (p *poster) post(body []byte, lines int) time.Duration {
	root := p.tr.root("http.post")
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, p.url, bytes.NewReader(body))
	if err == nil {
		if p.tr != nil {
			req.Header.Set(spanHeader, strconv.Itoa(root.idx))
		}
		var resp *http.Response
		resp, err = p.client.Do(req)
		if err == nil {
			var sum serve.IngestSummary
			derr := json.NewDecoder(resp.Body).Decode(&sum)
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			p.account(resp.StatusCode, sum, derr, lines)
		}
	}
	d := time.Since(start)
	root.end()
	if err != nil {
		p.mu.Lock()
		p.run.posts++
		p.run.failedPosts++
		p.mu.Unlock()
	}
	return d
}

func (p *poster) account(status int, sum serve.IngestSummary, derr error, lines int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.run
	r.posts++
	r.linesSent += int64(lines)
	r.accepted += int64(sum.Accepted)
	r.rejected += int64(sum.Rejected)
	r.parseErrors += int64(sum.ParseErrors)
	if status == http.StatusTooManyRequests {
		r.fail429++
	}
	// A POST fails when it is refused (429), errs (5xx or an unreadable
	// summary) or loses any line to a parse error.
	if status != http.StatusOK || derr != nil || sum.ParseErrors > 0 {
		r.failedPosts++
	}
}

// runHTTP warms the service with direct ingest, then drives the closed-
// and open-loop phases over HTTP.
func (s *serveHTTPInst) runHTTP(budget time.Duration, tr *tracer) (httpRun, error) {
	r := httpRun{sentLines: make([]int, len(s.conns))}
	srv, err := s.newServer(false)
	if err != nil {
		return r, err
	}
	defer srv.Close()
	for t := 0; t < warmTicks; t++ {
		for i, st := range s.warm {
			if t < len(st) {
				for srv.Ingest(s.serials[i], st[t]) == serve.Rejected {
					runtime.Gosched()
				}
			}
		}
	}
	srv.Drain()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	hs := &http.Server{Handler: &timedHandler{next: srv.Handler(), tr: tr}}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tp := &http.Transport{MaxConnsPerHost: len(s.conns), MaxIdleConnsPerHost: len(s.conns), DisableCompression: true}
	client := &http.Client{Transport: tp}
	var mu sync.Mutex
	p := &poster{client: client, url: "http://" + ln.Addr().String() + "/ingest", tr: tr, run: &r, mu: &mu}

	next := make([]int, len(s.conns)) // next batch per connection
	closedFor := time.Duration(float64(budget) * closedShare / httpRounds)
	openFor := budget/httpRounds - closedFor
	var lines int64
	var busy time.Duration
	for round := 0; round < httpRounds; round++ {
		n, d := s.closedLoop(p, next, closedFor)
		lines += n
		busy += d
		s.openLoop(p, next, openFor, &r)
	}
	r.closedRate = float64(lines) / busy.Seconds()

	tp.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := hs.Shutdown(ctx)
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return r, err
	}
	if shutErr != nil {
		return r, shutErr
	}
	srv.Drain()
	r.warnings = srv.Warnings()
	r.metrics = srv.Metrics()
	for c := range s.conns {
		r.sentLines[c] = min(next[c]*batchLines, len(s.conns[c].lines))
	}
	return r, nil
}

// closedLoop posts each connection's next batch as soon as its previous
// one returns, for d, and returns the records posted and the time taken.
// One round posts at most its share of closedLines.
func (s *serveHTTPInst) closedLoop(p *poster, next []int, d time.Duration) (int64, time.Duration) {
	start := time.Now()
	var lines int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c, cs := range s.conns {
		wg.Add(1)
		go func(c int, cs *connStream) {
			defer wg.Done()
			var n int64
			limit := min(len(cs.batches), next[c]+int(float64(len(cs.batches))*closedLines/httpRounds))
			for next[c] < limit && time.Since(start) < d {
				k := next[c]
				ln := batchLen(cs, k)
				p.post(cs.batches[k], ln)
				n += int64(ln)
				next[c]++
			}
			mu.Lock()
			lines += n
			mu.Unlock()
		}(c, cs)
	}
	wg.Wait()
	return lines, time.Since(start)
}

// openLoop posts on a fixed schedule: connection c's k-th batch is due at
// k·interval, and its latency runs from that due time, so a stall counts
// against every batch queued behind it.
func (s *serveHTTPInst) openLoop(p *poster, next []int, d time.Duration, r *httpRun) {
	interval := time.Duration(float64(time.Second) * float64(batchLines*len(s.conns)) / offeredRate)
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c, cs := range s.conns {
		wg.Add(1)
		go func(c int, cs *connStream) {
			defer wg.Done()
			var lat, lag []float64
			for k := 0; next[c] < len(cs.batches); k++ {
				due := start.Add(time.Duration(k) * interval)
				if due.Sub(start) >= d {
					break
				}
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				sent := time.Now()
				b := next[c]
				p.post(cs.batches[b], batchLen(cs, b))
				next[c]++
				lat = append(lat, float64(time.Since(due).Nanoseconds())/1e6)
				lag = append(lag, float64(sent.Sub(due).Nanoseconds())/1e6)
			}
			mu.Lock()
			r.latencies = append(r.latencies, lat...)
			r.lags = append(r.lags, lag...)
			mu.Unlock()
		}(c, cs)
	}
	wg.Wait()
}

func batchLen(cs *connStream, k int) int {
	return min(batchLines, len(cs.lines)-k*batchLines)
}

func (s *serveHTTPInst) measure(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	s.last = httpRun{}
	runtime.GC()
	mem := readMem()
	r, err := s.runHTTP(budget, tr)
	if err != nil {
		return nil, fmt.Errorf("serve-http: %w", err)
	}
	s.last = r
	out.mem = mem.since()
	out.attempted = r.posts
	out.failed = r.failedPosts
	out.items = r.linesSent
	out.throughput = r.closedRate
	out.p50MS = median(r.latencies)
	out.named["http_records_per_s"] = r.closedRate
	out.named["post_p50_ms"] = out.p50MS
	out.named["post_p99_ms"] = percentile(r.latencies, 99)
	out.named["open_loop_posts"] = float64(len(r.latencies))
	out.named["generator_lag_p50_ms"] = median(r.lags)
	return out, nil
}

// check compares the service's warnings with one Monitor replaying, per
// drive, exactly the records that reached the service, and the ingest
// accounting with the lines sent.
func (s *serveHTTPInst) check(out *outcome) error {
	r := &s.last
	if r.accepted+r.rejected+r.parseErrors != r.linesSent {
		return fmt.Errorf("serve-http: accepted %d + rejected %d + parse errors %d != %d lines sent",
			r.accepted, r.rejected, r.parseErrors, r.linesSent)
	}
	// Each drive's stream reached the service up to some tick: warm-up
	// ticks directly, then its connection's posted prefix.
	upto := make([]int, len(s.lens))
	for i, n := range s.lens {
		upto[i] = min(warmTicks, n)
	}
	for c, cs := range s.conns {
		for _, l := range cs.lines[:r.sentLines[c]] {
			upto[l.drive] = l.tick + 1
		}
	}
	want := s.oracle.expect(upto)
	got := append([]hddcart.MonitorWarning(nil), r.warnings...)
	serve.SortWarnings(got)
	if err := sameWarnings(got, want); err != nil {
		return fmt.Errorf("serve-http: %w", err)
	}
	out.checks["warnings"] = float64(len(want))
	return nil
}

func (s *serveHTTPInst) layers(out *outcome, spans []Span) map[string]float64 {
	r := &s.last
	v := map[string]float64{}
	tot, posts := passTotals(spans, "http.post")
	if posts > 0 {
		v["http.handler_ms"] = tot["http.handler"].TotalS * 1e3 / float64(posts)
		v["http.transport_ms"] = (tot["http.post"].TotalS - tot["http.handler"].TotalS) * 1e3 / float64(posts)
	}
	v["http.status_429"] = float64(r.fail429)
	v["http.parse_errors"] = float64(r.parseErrors)
	v["bench.generator_lag_ms"] = median(r.lags)
	monitorLayers(v, r.metrics)
	v["hddcart.observe_ns"] = s.oracle.observeNS
	s.microLayers(v)
	return v
}

func (s *serveHTTPInst) shape() shape {
	sh := s.sh
	sh.Samples = s.last.metrics.Totals.Monitor.Scored
	return sh
}
