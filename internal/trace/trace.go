// Package trace serializes SMART drive traces as CSV, the interchange
// format between cmd/gendata (dataset generation) and cmd/hddpred
// (training/evaluation), and the natural import path for real SMART dumps.
//
// The format is one row per (drive, hour) sample:
//
//	serial,family,failed,fail_hour,hour,n<ID>...,r<ID>...
//
// with one n<ID> (normalized) and one r<ID> (raw) column per catalogued
// SMART attribute. Rows of one drive must be contiguous and chronological,
// which lets the reader stream drive by drive without loading the file.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"hddcart/internal/smart"
)

// DriveMeta identifies a drive within a trace file.
type DriveMeta struct {
	// Serial is the drive's unique identifier.
	Serial string
	// Family is the drive family/model label.
	Family string
	// Failed reports whether the drive fails.
	Failed bool
	// FailHour is the failure instant (−1 for good drives).
	FailHour int
}

// DriveTrace is one drive's metadata plus its chronological records.
type DriveTrace struct {
	Meta    DriveMeta
	Records []smart.Record
}

// Header returns the CSV header row.
func Header() []string {
	h := []string{"serial", "family", "failed", "fail_hour", "hour"}
	for _, a := range smart.Catalogue {
		h = append(h, fmt.Sprintf("n%d", int(a.ID)))
	}
	for _, a := range smart.Catalogue {
		h = append(h, fmt.Sprintf("r%d", int(a.ID)))
	}
	return h
}

// Writer streams drive traces to CSV.
type Writer struct {
	cw          *csv.Writer
	wroteHeader bool
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{cw: csv.NewWriter(w)}
}

// WriteDrive appends one drive's records.
func (w *Writer) WriteDrive(meta DriveMeta, recs []smart.Record) error {
	if !w.wroteHeader {
		if err := w.cw.Write(Header()); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		w.wroteHeader = true
	}
	failHour := meta.FailHour
	if !meta.Failed {
		failHour = -1
	}
	row := make([]string, 0, 5+2*smart.NumAttrs)
	for i := range recs {
		rec := &recs[i]
		row = row[:0]
		row = append(row,
			meta.Serial,
			meta.Family,
			strconv.FormatBool(meta.Failed),
			strconv.Itoa(failHour),
			strconv.Itoa(rec.Hour),
		)
		for _, v := range rec.Normalized {
			row = append(row, formatValue(v))
		}
		for _, v := range rec.Raw {
			row = append(row, formatValue(v))
		}
		if err := w.cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	return nil
}

// formatValue renders a float compactly (integers without decimals).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 8, 64)
}

// Flush flushes buffered rows and reports any write error.
func (w *Writer) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}
