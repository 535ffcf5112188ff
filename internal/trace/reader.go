package trace

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"hddcart/internal/smart"
)

// Reader streams drive traces from the native CSV layout. The format is
// machine-generated, so the reader is strict: a row that breaks the
// grammar (see scanner) or carries a malformed value is an error, and so
// is a drive whose rows are not contiguous and chronological, or whose
// serial, family, failed flag or fail hour changes from its first row, or
// a failed drive with a negative fail hour. Every such error is a
// RowError pinned to the offending input line; a failing read of the
// underlying reader is returned wrapped.
//
// Next and ReadAll report the same first error in input order. Within a
// row the grammar is checked first, then the values in column order, then
// the row against its drive: for a continuation row the metadata, then
// the hour; for a drive's first row the fail hour, then whether the serial
// already appeared.
type Reader struct {
	src *source
	p   parser // Next's block parser
	m   merger
	err error // the first error, returned again by every later call
}

// NewReader returns a Reader consuming r. It validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	src := &source{r: r, line: 1}
	b, err := src.next()
	if errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if err != nil {
		return nil, err
	}
	sc := scanner{b: b.data, line: b.line}
	var f fields
	_, ok, err := sc.row(&f)
	if err != nil {
		re := err.(RowError)
		re.Reason = "header: " + re.Reason
		return nil, re
	}
	if !ok {
		return nil, fmt.Errorf("trace: read header: %w", io.EOF)
	}
	for i, want := range Header() {
		if f[i] != want {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, f[i], want)
		}
	}
	b.data, b.line = b.data[sc.p:], sc.line
	src.head = b
	return &Reader{src: src, m: merger{seen: map[string]struct{}{}}}, nil
}

// Next returns the next drive's trace; io.EOF when the input is exhausted.
// It parses the input a block at a time on the calling goroutine, so it
// holds one block's drives at most. After an error it returns the drives
// completed before the offending row, then the error.
func (r *Reader) Next() (DriveTrace, error) {
	for len(r.m.done) == 0 {
		if r.err != nil {
			return DriveTrace{}, r.err
		}
		b, err := r.src.next()
		if errors.Is(err, io.EOF) {
			if !r.m.close() {
				return DriveTrace{}, io.EOF
			}
			continue
		}
		if err != nil {
			r.err = err
			continue
		}
		r.p.parse(b)
		b.recycle()
		r.err = r.m.add(b)
	}
	dt := r.m.done[0]
	r.m.done[0] = DriveTrace{}
	r.m.done = r.m.done[1:]
	return dt, nil
}

// ReadAll consumes every remaining drive, continuing where any earlier
// Next calls stopped. Blocks of the input parse on GOMAXPROCS goroutines
// and merge in input order, so the drives, and on failure the first
// error in input order, are the same as a serial read returns.
func (r *Reader) ReadAll() ([]DriveTrace, error) {
	if r.err == nil {
		r.err = r.readParallel()
	}
	if r.err != nil {
		return nil, r.err
	}
	r.m.close()
	out := r.m.done
	r.m.done = nil
	return out, nil
}

// readParallel runs the block pipeline to the end of the input or to the
// first error: one goroutine reads blocks, a bounded pool parses them, and
// the caller merges them in input order.
func (r *Reader) readParallel() error {
	workers := runtime.GOMAXPROCS(0)
	// jobs holds a block per worker, so the reader runs ahead of the pool.
	jobs := make(chan *block, workers)
	// order carries every block to the merge in input order; two blocks
	// per worker keep the pool busy while the merge waits on the oldest,
	// and bound how many parsed blocks wait in memory.
	order := make(chan *block, 2*workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(order)
		defer close(jobs)
		for {
			b, err := r.src.next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				b = &block{err: err, done: make(chan struct{})}
				close(b.done)
				select {
				case order <- b:
				case <-stop:
				}
				return
			}
			b.done = make(chan struct{})
			select {
			case jobs <- b:
			case <-stop:
				return
			}
			select {
			case order <- b:
			case <-stop:
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _ := parsers.Get().(*parser)
			if p == nil {
				p = new(parser)
			}
			defer parsers.Put(p)
			for b := range jobs {
				p.parse(b)
				b.recycle()
				close(b.done)
			}
		}()
	}
	var err error
	for b := range order {
		if err != nil {
			continue // drain, so the reader goroutine can stop
		}
		<-b.done
		if err = r.m.add(b); err != nil {
			close(stop)
		}
	}
	wg.Wait()
	return err
}

// run is one drive's consecutive rows within a block.
type run struct {
	meta DriveMeta
	line int            // physical line of the run's first row
	recs []smart.Record // exact length
}

// parser turns blocks into runs; one serves each parsing goroutine.
type parser struct {
	f    fields
	recs []smart.Record // scratch the current block's rows decode into
}

// parsers recycles parsers, and their scratch, across reads.
var parsers sync.Pool // of *parser

// parse cuts b's rows into runs. It stops at the block's first error and
// keeps the runs before it, the interrupted one included: the merge checks
// a run at its first row, which precedes the error.
func (p *parser) parse(b *block) {
	sc := scanner{b: b.data, line: b.line}
	if cap(p.recs) < b.rows {
		p.recs = make([]smart.Record, 0, b.rows)
	}
	recs := p.recs[:0]
	start := 0 // recs index of the last run's first row
	for {
		line, ok, err := sc.row(&p.f)
		if err != nil || !ok {
			b.err = err
			break
		}
		recs = append(recs, smart.Record{})
		rec := &recs[len(recs)-1]
		failed, failHour, err := p.f.decode(line, rec)
		if err == nil && len(b.runs) > 0 && p.f[0] == b.runs[len(b.runs)-1].meta.Serial {
			row := DriveMeta{Family: p.f[1], Failed: failed, FailHour: failHour}
			err = continues(&b.runs[len(b.runs)-1].meta, recs[len(recs)-2].Hour, row, rec.Hour, line)
			if err == nil {
				continue
			}
		}
		if err != nil {
			b.err = err
			recs = recs[:len(recs)-1]
			break
		}
		if n := len(b.runs); n > 0 {
			b.runs[n-1].recs = exact(recs[start : len(recs)-1])
		}
		start = len(recs) - 1
		b.runs = append(b.runs, run{
			meta: DriveMeta{Serial: strings.Clone(p.f[0]), Family: strings.Clone(p.f[1]), Failed: failed, FailHour: failHour},
			line: line,
		})
	}
	if n := len(b.runs); n > 0 {
		b.runs[n-1].recs = exact(recs[start:])
	}
	p.recs = recs
}

// exact copies recs into a slice of exactly its length.
func exact(recs []smart.Record) []smart.Record {
	out := make([]smart.Record, len(recs))
	copy(out, recs)
	return out
}

// continues checks a row that continues an open drive: the row's family,
// failed flag and fail hour must match the drive's first row, and its
// hour must follow the drive's last.
func continues(open *DriveMeta, lastHour int, row DriveMeta, hour, line int) error {
	if row.Family != open.Family || row.Failed != open.Failed || row.FailHour != open.FailHour {
		return RowError{Line: line, Serial: open.Serial, Reason: fmt.Sprintf(
			"drive metadata changed to family %q, failed %t, fail_hour %d from the first row's %q, %t, %d",
			row.Family, row.Failed, row.FailHour, open.Family, open.Failed, open.FailHour)}
	}
	if hour <= lastHour {
		return RowError{Line: line, Serial: open.Serial, Reason: fmt.Sprintf("rows not chronological at hour %d", hour)}
	}
	return nil
}

// merger joins runs, in input order, into drives: it applies the checks
// that need more than one block (a drive continuing across a seam, a
// serial seen before) and gives each drive one exact-length record slice.
type merger struct {
	open     bool
	meta     DriveMeta
	parts    [][]smart.Record // the open drive's runs
	lastHour int
	seen     map[string]struct{}
	done     []DriveTrace // completed drives not yet handed out
}

// add merges a parsed block's runs and returns the first error among
// them, or else the block's own.
func (m *merger) add(b *block) error {
	for i := range b.runs {
		r := &b.runs[i]
		if m.open && r.meta.Serial == m.meta.Serial {
			if err := continues(&m.meta, m.lastHour, r.meta, r.recs[0].Hour, r.line); err != nil {
				return err
			}
		} else {
			m.close()
			if err := m.start(r); err != nil {
				return err
			}
		}
		m.parts = append(m.parts, r.recs)
		m.lastHour = r.recs[len(r.recs)-1].Hour
	}
	b.runs = nil
	return b.err
}

// start opens a drive at its first run.
func (m *merger) start(r *run) error {
	if r.meta.Failed && r.meta.FailHour < 0 {
		return RowError{Line: r.line, Serial: r.meta.Serial,
			Reason: fmt.Sprintf("failed drive has negative fail_hour %d", r.meta.FailHour)}
	}
	if _, ok := m.seen[r.meta.Serial]; ok {
		return RowError{Line: r.line, Serial: r.meta.Serial,
			Reason: "serial reappears after other drives' rows; a drive's rows must be contiguous"}
	}
	m.seen[r.meta.Serial] = struct{}{}
	m.open, m.meta = true, r.meta
	return nil
}

// close completes the open drive, if any, and reports whether there was
// one.
func (m *merger) close() bool {
	if !m.open {
		return false
	}
	recs := m.parts[0]
	if len(m.parts) > 1 {
		n := 0
		for _, p := range m.parts {
			n += len(p)
		}
		recs = make([]smart.Record, 0, n)
		for _, p := range m.parts {
			recs = append(recs, p...)
		}
	}
	m.done = append(m.done, DriveTrace{Meta: m.meta, Records: recs})
	clear(m.parts)
	m.parts = m.parts[:0]
	m.open = false
	return true
}

// ParseRow parses one data row of the native CSV layout into the drive's
// metadata and its record, reporting failures as line-pinned RowErrors.
// It exists for streaming consumers (the serve ingest endpoint) that
// route rows one at a time and must keep going past a malformed row with
// per-line accounting, where Reader's whole-drive strictness would abort
// the batch. It decodes values exactly as Reader does.
func ParseRow(row []string, line int) (DriveMeta, smart.Record, error) {
	var meta DriveMeta
	var rec smart.Record
	if len(row) != numFields {
		return meta, rec, RowError{Line: line, Reason: reasonFieldCount}
	}
	var f fields
	copy(f[:], row)
	meta.Serial, meta.Family = row[0], row[1]
	var err error
	meta.Failed, meta.FailHour, err = f.decode(line, &rec)
	return meta, rec, err
}

// decode parses a row's flag, hours and values into rec. Its errors name
// the row's serial, copied out of the block.
func (f *fields) decode(line int, rec *smart.Record) (failed bool, failHour int, err error) {
	rowErr := func(format string, args ...any) error {
		return RowError{Line: line, Serial: strings.Clone(f[0]), Reason: fmt.Sprintf(format, args...)}
	}
	if failed, err = strconv.ParseBool(f[2]); err != nil {
		return false, 0, rowErr("bad failed flag %q: %v", f[2], err)
	}
	if failHour, err = parseInt(f[3]); err != nil {
		return false, 0, rowErr("bad fail_hour %q: %v", f[3], err)
	}
	if rec.Hour, err = parseInt(f[4]); err != nil {
		return false, 0, rowErr("bad hour %q: %v", f[4], err)
	}
	const n = len(rec.Raw)
	for i := 0; i < n; i++ {
		if rec.Normalized[i], err = parseNum(f[5+i]); err != nil {
			return false, 0, rowErr("bad normalized value %q: %v", f[5+i], err)
		}
		if rec.Raw[i], err = parseNum(f[5+n+i]); err != nil {
			return false, 0, rowErr("bad raw value %q: %v", f[5+n+i], err)
		}
	}
	return failed, failHour, nil
}
