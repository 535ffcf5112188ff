package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"unsafe"

	"hddcart/internal/smart"
)

// numFields is the column count of the native layout: serial, family,
// failed, fail_hour, hour, then one normalized and one raw column per
// catalogued attribute.
const numFields = 5 + 2*len(smart.Record{}.Raw)

// fields holds one row's columns as views into the block being scanned.
type fields [numFields]string

// The grammar's rejection reasons, worded as encoding/csv words them.
const (
	reasonFieldCount = "wrong number of fields"
	reasonBareQuote  = `bare " in non-quoted-field`
	reasonQuote      = `extraneous or missing " in quoted-field`
)

// scanner cuts the rows out of one block of whole rows. The grammar is
// the one trace.Writer emits, which is RFC 4180 as encoding/csv reads it:
// comma-separated fields, a field that starts with '"' is quoted and may
// hold commas, line breaks and "" escapes, "\r\n" ends a line like "\n",
// one '\r' before the end of input is dropped, blank lines are skipped,
// and every row has exactly numFields fields. Quoted fields are unescaped
// in place, which only ever shrinks them, so every field is a view into
// the block and a row costs no allocation.
type scanner struct {
	b    []byte
	p    int // next unscanned byte
	line int // physical line of b[p], 1-based
}

// row scans the next row into f. It returns the row's first physical
// line, false once the block is exhausted, or a RowError for a row the
// grammar rejects.
func (s *scanner) row(f *fields) (int, bool, error) {
	b := s.b
	for s.p < len(b) {
		if b[s.p] == '\n' {
			s.p++
			s.line++
		} else if b[s.p] == '\r' && s.p+1 == len(b) {
			s.p++
		} else if b[s.p] == '\r' && b[s.p+1] == '\n' {
			s.p += 2
			s.line++
		} else {
			break
		}
	}
	if s.p == len(b) {
		return 0, false, nil
	}
	line := s.line
	end, next := len(b), len(b)
	if i := bytes.IndexByte(b[s.p:], '\n'); i >= 0 {
		end = s.p + i
		next = end + 1
	}
	text := b[s.p:end]
	if n := len(text); n > 0 && text[n-1] == '\r' {
		text = text[:n-1]
	}
	if bytes.IndexByte(text, '"') >= 0 {
		return s.quotedRow(f, line)
	}
	n := 0
	for {
		i := bytes.IndexByte(text, ',')
		if i < 0 {
			break
		}
		if n < numFields {
			f[n] = view(text[:i])
		}
		n++
		text = text[i+1:]
	}
	if n < numFields {
		f[n] = view(text)
	}
	s.p = next
	if next > end {
		s.line++
	}
	if n+1 != numFields {
		return line, true, RowError{Line: line, Reason: reasonFieldCount}
	}
	return line, true, nil
}

// quotedRow is row's general path, for a row whose first line holds a
// quote. It follows encoding/csv's reader step for step, down to the line
// each rejection is pinned to.
func (s *scanner) quotedRow(f *fields, recLine int) (int, bool, error) {
	b := s.b
	p, line, n := s.p, recLine, 0
	store := func(v []byte) {
		if n < numFields {
			f[n] = view(v)
		}
		n++
	}
	for {
		if p < len(b) && b[p] == '"' {
			p++
			start, w := p, p
			for {
				i := bytes.IndexByte(b[p:], '"')
				if i < 0 {
					return recLine, true, RowError{Line: line + unterminatedLines(b[p:]), Reason: reasonQuote}
				}
				w, line = unfold(b, w, p, p+i, line)
				p += i + 1
				if p < len(b) && b[p] == '"' {
					b[w] = '"'
					w++
					p++
					continue
				}
				break
			}
			store(b[start:w])
			if p < len(b) && b[p] == ',' {
				p++
				continue
			}
			if !atLineEnd(b, p) {
				return recLine, true, RowError{Line: line, Reason: reasonQuote}
			}
		} else {
			j := p
			for j < len(b) && b[j] != ',' && b[j] != '\n' {
				j++
			}
			v := b[p:j]
			if j == len(b) || b[j] == '\n' {
				if k := len(v); k > 0 && v[k-1] == '\r' {
					v = v[:k-1]
				}
			}
			if bytes.IndexByte(v, '"') >= 0 {
				return recLine, true, RowError{Line: line, Reason: reasonBareQuote}
			}
			store(v)
			if j < len(b) && b[j] == ',' {
				p = j + 1
				continue
			}
			p = j
		}
		break
	}
	// p is at the row's line end: '\n', "\r\n", a final '\r' or the end.
	if p < len(b) && b[p] == '\r' {
		p++
	}
	if p < len(b) {
		p++
		line++
	}
	s.p, s.line = p, line
	if n != numFields {
		return recLine, true, RowError{Line: recLine, Reason: reasonFieldCount}
	}
	return recLine, true, nil
}

// view returns b's bytes as a string without copying. The string is valid
// only while b is neither modified nor reused, so it must not outlive the
// row being decoded: anything kept is copied first.
func view(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// atLineEnd reports whether b[p:] starts with a line end: '\n', "\r\n",
// a '\r' that is the last byte, or nothing at all.
func atLineEnd(b []byte, p int) bool {
	return p == len(b) || b[p] == '\n' || b[p] == '\r' && (p+1 == len(b) || b[p+1] == '\n')
}

// unfold moves the quoted-field content b[from:to] down to b[w:],
// turning each "\r\n" into "\n", and counts the line breaks it passes.
// It returns the new write cursor and line.
func unfold(b []byte, w, from, to, line int) (int, int) {
	seg := b[from:to]
	line += bytes.Count(seg, []byte{'\n'})
	if w == from && bytes.IndexByte(seg, '\r') < 0 {
		return to, line
	}
	for k := 0; k < len(seg); k++ {
		if seg[k] == '\r' && k+1 < len(seg) && seg[k+1] == '\n' {
			continue
		}
		b[w] = seg[k]
		w++
	}
	return w, line
}

// unterminatedLines is how many lines past the current one encoding/csv
// reports an unterminated quoted field whose remaining content is rest:
// one per line break that more content follows, where a final lone '\r'
// is no content.
func unterminatedLines(rest []byte) int {
	k := bytes.Count(rest, []byte{'\n'})
	if k == 0 {
		return 0
	}
	tail := rest[bytes.LastIndexByte(rest, '\n')+1:]
	if len(tail) == 0 || len(tail) == 1 && tail[0] == '\r' {
		return k - 1
	}
	return k
}

// blockSize is the least number of bytes a block holds before it is cut
// at the next row end. Tests lower it to force a block seam at every row.
var blockSize = 1 << 20

// readChunk is the read size once a block holds blockSize bytes: several
// rows, so the row end that closes the block usually arrives in one read.
const readChunk = 4 << 10

// source reads the input in blocks of whole rows. A block ends at the
// first row end at or after blockSize bytes, found by quote parity: in
// input the grammar accepts, a '\n' ends a row exactly when an even number
// of quotes precedes it. Input that breaks the grammar can make the parity
// lie only after the row that breaks it, which the scanner of that row's
// block rejects first, so a cut in the wrong place is never the first
// error. Parsed blocks hand their buffers back through recycle, so a read
// of any length holds a bounded number of them.
type source struct {
	r     io.Reader
	carry []byte // input read past the last cut
	line  int    // physical line of carry[0]
	eof   bool
	head  *block // a block to hand out before reading more
}

// blockBufs recycles block buffers across blocks and reads.
var blockBufs sync.Pool // of *[]byte

// block is one unit of parse work: whole rows, their first physical line,
// and once parsed, the drive runs they hold and the block's first error.
type block struct {
	buf  []byte // the buffer data lies in, for recycling
	data []byte
	line int
	rows int // at most this many rows
	runs []run
	err  error
	done chan struct{}
}

// next returns the next block, or io.EOF once the input is exhausted.
func (s *source) next() (*block, error) {
	if h := s.head; h != nil {
		s.head = nil
		return h, nil
	}
	if s.eof && len(s.carry) == 0 {
		return nil, io.EOF
	}
	buf := buffer(max(blockSize, len(s.carry)) + readChunk)
	buf = append(buf, s.carry...)
	cut := -1
	for {
		if cut = rowEndFrom(buf, blockSize-1); cut >= 0 {
			break
		}
		if s.eof {
			cut = len(buf)
			break
		}
		want := max(blockSize-len(buf), readChunk)
		if cap(buf)-len(buf) < want {
			buf = append(buf, make([]byte, want)...)[:len(buf)]
		}
		n, err := s.r.Read(buf[len(buf) : len(buf)+want])
		buf = buf[:len(buf)+n]
		if errors.Is(err, io.EOF) {
			s.eof = true
		} else if err != nil {
			return nil, fmt.Errorf("trace: read: %w", err)
		}
	}
	s.carry = append(s.carry[:0], buf[cut:]...)
	b := &block{buf: buf, data: buf[:cut], line: s.line}
	lines := bytes.Count(b.data, []byte{'\n'})
	s.line += lines
	b.rows = lines + 1
	if cut == 0 {
		b.recycle()
		return nil, io.EOF
	}
	return b, nil
}

// rowEndFrom returns the index just past the first row-ending '\n' at or
// after b[from], or -1 if b holds none. b starts at a row boundary.
func rowEndFrom(b []byte, from int) int {
	from = max(from, 0)
	if from >= len(b) {
		return -1
	}
	odd := bytes.Count(b[:from], []byte{'"'})%2 == 1
	for {
		nl := bytes.IndexByte(b[from:], '\n')
		if nl < 0 {
			return -1
		}
		q := bytes.IndexByte(b[from:from+nl], '"')
		if q < 0 {
			if !odd {
				return from + nl + 1
			}
			from += nl + 1
			continue
		}
		odd = !odd
		from += q + 1
	}
}

// buffer returns an empty buffer of at least n bytes' capacity, reusing a
// recycled one when it is large enough.
func buffer(n int) []byte {
	if b, ok := blockBufs.Get().(*[]byte); ok && cap(*b) >= n {
		return (*b)[:0]
	}
	return make([]byte, 0, n)
}

// recycle hands a parsed block's buffer back for reuse. Nothing may refer
// to the block's data afterwards.
func (b *block) recycle() {
	buf := b.buf
	blockBufs.Put(&buf)
	b.buf, b.data = nil, nil
}
