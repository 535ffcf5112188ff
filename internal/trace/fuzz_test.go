package trace

import (
	"bytes"
	"testing"
)

// The parser fuzz targets enforce the two ingest invariants the chaos
// suite builds on: no input can panic a parser, and whatever a parser
// accepts is clean — chronological hours, finite in-domain values, and
// row-accurate accounting for everything it rejected.

func FuzzBackblazeCSV(f *testing.F) {
	f.Add([]byte(backblazeSample))
	f.Add([]byte("date,serial_number,model,failure,smart_1_normalized,smart_1_raw\n" +
		"2024-01-01,X,M,0,100,1\n"))
	// Duplicated snapshot, NaN/Inf/out-of-range values, missing serial.
	f.Add([]byte("date,serial_number,model,failure,smart_5_normalized,smart_5_raw\n" +
		"2024-01-01,X,M,0,NaN,1e999\n" +
		"2024-01-01,X,M,1,100,2\n" +
		"2024-01-02,,M,0,100,3\n" +
		"2024-01-03,X,M2,0,-5,1e300\n"))
	// Truncated rows and stray quotes.
	f.Add([]byte("date,serial_number,model,failure,smart_9_raw\n" +
		"2024-01-01,X\n" +
		"2024-\"01,X,M,0,7\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		drives, stats, err := ReadBackblazeStats(bytes.NewReader(data), BackblazeOptions{})
		if err != nil {
			return // stream-level rejection is fine; panics are not
		}
		if stats.Drives != len(drives) {
			t.Fatalf("stats.Drives = %d, drives = %d", stats.Drives, len(drives))
		}
		for _, dt := range drives {
			if dt.Meta.Serial == "" {
				t.Fatal("accepted drive without a serial")
			}
			if len(dt.Records) == 0 {
				t.Fatalf("drive %s has no records", dt.Meta.Serial)
			}
			for i := range dt.Records {
				rec := &dt.Records[i]
				if i > 0 && rec.Hour <= dt.Records[i-1].Hour {
					t.Fatalf("drive %s hours not chronological at %d", dt.Meta.Serial, rec.Hour)
				}
				if n := rec.CorruptValues(); n != 0 {
					t.Fatalf("drive %s record %d carries %d corrupt values", dt.Meta.Serial, i, n)
				}
			}
			if dt.Meta.Failed == (dt.Meta.FailHour < 0) {
				t.Fatalf("drive %s failed=%v but FailHour=%d", dt.Meta.Serial, dt.Meta.Failed, dt.Meta.FailHour)
			}
		}
		if len(stats.Errors) > maxRowErrors {
			t.Fatalf("detailed errors %d exceed the cap", len(stats.Errors))
		}
		for _, re := range stats.Errors {
			if re.Reason == "" {
				t.Fatal("row error without a reason")
			}
		}
	})
}

func FuzzSmartctlParse(f *testing.F) {
	f.Add([]byte(smartctlSample), 42)
	f.Add([]byte("ID# ATTRIBUTE_NAME FLAG VALUE WORST THRESH TYPE UPDATED WHEN_FAILED RAW_VALUE\n"+
		"  5 Reallocated_Sector_Ct 0x0033 100 100 010 Pre-fail Always - 24\n"), 0)
	// Truncated row, NaN value, huge raw.
	f.Add([]byte("ID# ...\n"+
		"  5 Reallocated_Sector_Ct 0x0033 100\n"+
		"  1 Raw_Read_Error_Rate 0x000f NaN 099 006 Pre-fail Always - 170\n"+
		"194 Temperature_Celsius 0x0022 062 045 000 Old_age Always - 1e30\n"), 7)
	f.Fuzz(func(t *testing.T, data []byte, hour int) {
		rec, stats, err := ParseSmartctlStats(bytes.NewReader(data), hour)
		if err != nil {
			return
		}
		if rec.Hour != hour {
			t.Fatalf("hour = %d, want %d", rec.Hour, hour)
		}
		if n := rec.CorruptValues(); n != 0 {
			t.Fatalf("accepted record carries %d corrupt values", n)
		}
		for _, re := range stats.Errors {
			if re.Line <= 0 {
				t.Fatalf("row error without a line number: %v", re)
			}
		}
	})
}
