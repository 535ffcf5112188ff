package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

func sampleTrace(serial string, failed bool, hours ...int) DriveTrace {
	dt := DriveTrace{Meta: DriveMeta{Serial: serial, Family: "W", Failed: failed, FailHour: -1}}
	if failed {
		dt.Meta.FailHour = hours[len(hours)-1] + 1
	}
	for _, h := range hours {
		var r smart.Record
		r.Hour = h
		for i := range r.Normalized {
			r.Normalized[i] = float64(100 - i)
			r.Raw[i] = float64(i) * 1.5
		}
		dt.Records = append(dt.Records, r)
	}
	return dt
}

func TestRoundTrip(t *testing.T) {
	drives := []DriveTrace{
		sampleTrace("W-000001", false, 0, 1, 2, 5),
		sampleTrace("W-000002", true, 10, 11, 12),
		sampleTrace("Q-000001", false, 3),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, d := range drives {
		if err := w.WriteDrive(d.Meta, d.Records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(drives) {
		t.Fatalf("read %d drives, want %d", len(got), len(drives))
	}
	for i, want := range drives {
		if got[i].Meta != want.Meta {
			t.Errorf("drive %d meta = %+v, want %+v", i, got[i].Meta, want.Meta)
		}
		if len(got[i].Records) != len(want.Records) {
			t.Fatalf("drive %d: %d records, want %d", i, len(got[i].Records), len(want.Records))
		}
		for j := range want.Records {
			if got[i].Records[j] != want.Records[j] {
				t.Errorf("drive %d record %d differs", i, j)
			}
		}
	}
}

func TestRoundTripSimulatedTrace(t *testing.T) {
	// Simulator output must survive the CSV round trip bit-exactly
	// enough for modeling (float formatting uses 8 significant digits).
	w := simulate.FamilyW()
	w.GoodCount, w.FailedCount = 2, 1
	fleet, err := simulate.New(simulate.Config{Seed: 5, Families: []simulate.FamilyParams{w}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	d := fleet.Drives()[2] // the failed drive
	recs := fleet.Trace(d.Index)
	meta := DriveMeta{Serial: d.Serial, Family: d.Family, Failed: d.Failed, FailHour: d.FailHour}
	if err := tw.WriteDrive(meta, recs); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != meta {
		t.Errorf("meta = %+v, want %+v", got.Meta, meta)
	}
	if len(got.Records) != len(recs) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(recs))
	}
	for j := range recs {
		for k := range recs[j].Normalized {
			rel := recs[j].Normalized[k] - got.Records[j].Normalized[k]
			if rel > 1e-5 || rel < -1e-5 {
				t.Fatalf("record %d attr %d: %v vs %v", j, k, recs[j].Normalized[k], got.Records[j].Normalized[k])
			}
		}
	}
}

func TestNextStreamsDriveByDrive(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a := sampleTrace("A", false, 0, 1)
	b := sampleTrace("B", false, 7)
	_ = w.WriteDrive(a.Meta, a.Records)
	_ = w.WriteDrive(b.Meta, b.Records)
	_ = w.Flush()

	r, _ := NewReader(&buf)
	first, err := r.Next()
	if err != nil || first.Meta.Serial != "A" || len(first.Records) != 2 {
		t.Fatalf("first = %+v, %v", first.Meta, err)
	}
	second, err := r.Next()
	if err != nil || second.Meta.Serial != "B" || len(second.Records) != 1 {
		t.Fatalf("second = %+v, %v", second.Meta, err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("nope,header\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Error("empty file accepted")
	}
}

func TestReaderRejectsBadRows(t *testing.T) {
	header := strings.Join(Header(), ",")
	pad := strings.Repeat(",1", 2*smart.NumAttrs)
	good := "s,W,false,-1,0" + pad + "\n"
	cases := []struct {
		rows string
		line int
	}{
		{"s,W,notabool,-1,0" + pad + "\n", 2},
		{"s,W,false,x,0" + pad + "\n", 2},
		{"s,W,false,-1,zz" + pad + "\n", 2},
		{"s,W,false,-1,0" + strings.Repeat(",x", 2*smart.NumAttrs) + "\n", 2},
		// The grammar's rejections: a wrong field count, a bare quote, a
		// stray character after a closing quote, an unterminated quote.
		{"s,W,false,-1,0" + pad + ",extra\n", 2},
		{good + "\n" + "s,W,false,-1,1" + pad[:len(pad)-2] + "\n", 4},
		{good + "s,W\"x,false,-1,1" + pad + "\n", 3},
		{good + "\"s\"x,W,false,-1,1" + pad + "\n", 3},
		{good + "\"s\nline,W,false,-1,1" + pad + "\n", 4},
		{"\"s\n\",W,false,-1,0" + pad + ",extra\n", 2},
	}
	for i, c := range cases {
		for _, read := range []func(string) ([]DriveTrace, error){readAll, readNext} {
			_, err := read(header + "\n" + c.rows)
			var re RowError
			if !errors.As(err, &re) {
				t.Errorf("case %d: error %v (%T), want a RowError", i, err, err)
			} else if re.Line != c.line {
				t.Errorf("case %d: error at line %d, want %d: %v", i, re.Line, c.line, err)
			}
			if _, want := oracleRead(header + "\n" + c.rows); !reflect.DeepEqual(err, want) {
				t.Errorf("case %d: error %v, encoding/csv oracle %v", i, err, want)
			}
		}
	}
}

func TestReaderRejectsNonChronological(t *testing.T) {
	header := strings.Join(Header(), ",")
	pad := strings.Repeat(",1", 2*smart.NumAttrs)
	raw := header + "\n" +
		"s,W,false,-1,5" + pad + "\n" +
		"s,W,false,-1,3" + pad + "\n"
	r, err := NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("non-chronological rows accepted")
	}
}

func TestGoodDriveFailHourNormalized(t *testing.T) {
	// Good drives always serialize fail_hour = -1 regardless of input.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	meta := DriveMeta{Serial: "g", Family: "W", Failed: false, FailHour: 999}
	dt := sampleTrace("g", false, 0)
	if err := w.WriteDrive(meta, dt.Records); err != nil {
		t.Fatal(err)
	}
	_ = w.Flush()
	r, _ := NewReader(&buf)
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.FailHour != -1 {
		t.Errorf("good drive fail_hour = %d, want -1", got.Meta.FailHour)
	}
}
