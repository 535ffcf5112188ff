package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hddcart/internal/simulate"
	"hddcart/internal/smart"
)

// errOracleHeader is oracleRead's rejection of the header.
var errOracleHeader = errors.New("bad header")

// oracleRead is the reader as it was before it had a scanner of its own:
// encoding/csv cuts the rows and strconv decodes the values, followed by
// the drive checks. It returns the drives completed before the first
// error, which is what Next hands out before returning that error.
func oracleRead(data string) ([]DriveTrace, error) {
	cr := csv.NewReader(strings.NewReader(data))
	cr.FieldsPerRecord = numFields
	header, err := cr.Read()
	if err != nil {
		return nil, errOracleHeader
	}
	for i, want := range Header() {
		if header[i] != want {
			return nil, errOracleHeader
		}
	}
	var out []DriveTrace
	var cur *DriveTrace
	seen := map[string]struct{}{}
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			if cur != nil {
				out = append(out, *cur)
			}
			return out, nil
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return out, RowError{Line: pe.Line, Reason: pe.Err.Error()}
		}
		if err != nil {
			return out, err
		}
		line, _ := cr.FieldPos(0)
		meta, rec, err := oracleParseRow(row, line)
		if err != nil {
			return out, err
		}
		if cur != nil && meta.Serial == cur.Meta.Serial {
			last := cur.Records[len(cur.Records)-1].Hour
			if err := continues(&cur.Meta, last, meta, rec.Hour, line); err != nil {
				return out, err
			}
			cur.Records = append(cur.Records, rec)
			continue
		}
		if cur != nil {
			out = append(out, *cur)
		}
		m := merger{seen: seen}
		if err := m.start(&run{meta: meta, line: line}); err != nil {
			return out, err
		}
		cur = &DriveTrace{Meta: meta, Records: []smart.Record{rec}}
	}
}

// oracleParseRow is the strconv-only row decoder.
func oracleParseRow(row []string, line int) (DriveMeta, smart.Record, error) {
	var meta DriveMeta
	var rec smart.Record
	meta.Serial = row[0]
	meta.Family = row[1]
	rowErr := func(format string, args ...any) error {
		return RowError{Line: line, Serial: meta.Serial, Reason: fmt.Sprintf(format, args...)}
	}
	failed, err := strconv.ParseBool(row[2])
	if err != nil {
		return meta, rec, rowErr("bad failed flag %q: %v", row[2], err)
	}
	meta.Failed = failed
	meta.FailHour, err = strconv.Atoi(row[3])
	if err != nil {
		return meta, rec, rowErr("bad fail_hour %q: %v", row[3], err)
	}
	rec.Hour, err = strconv.Atoi(row[4])
	if err != nil {
		return meta, rec, rowErr("bad hour %q: %v", row[4], err)
	}
	n := smart.NumAttrs
	for i := 0; i < n; i++ {
		rec.Normalized[i], err = strconv.ParseFloat(row[5+i], 64)
		if err != nil {
			return meta, rec, rowErr("bad normalized value %q: %v", row[5+i], err)
		}
		rec.Raw[i], err = strconv.ParseFloat(row[5+n+i], 64)
		if err != nil {
			return meta, rec, rowErr("bad raw value %q: %v", row[5+n+i], err)
		}
	}
	return meta, rec, nil
}

// sameDrives reports the first difference between two drive lists, with
// values compared bit for bit.
func sameDrives(got, want []DriveTrace) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d drives, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Meta != w.Meta {
			return fmt.Errorf("drive %d meta %+v, want %+v", i, g.Meta, w.Meta)
		}
		if len(g.Records) != len(w.Records) {
			return fmt.Errorf("drive %d: %d records, want %d", i, len(g.Records), len(w.Records))
		}
		for j := range w.Records {
			a, b := &g.Records[j], &w.Records[j]
			if a.Hour != b.Hour {
				return fmt.Errorf("drive %d record %d: hour %d, want %d", i, j, a.Hour, b.Hour)
			}
			for k := range b.Normalized {
				if math.Float64bits(a.Normalized[k]) != math.Float64bits(b.Normalized[k]) ||
					math.Float64bits(a.Raw[k]) != math.Float64bits(b.Raw[k]) {
					return fmt.Errorf("drive %d record %d attribute %d differs", i, j, k)
				}
			}
		}
	}
	return nil
}

// readAll reads data with ReadAll.
func readAll(data string) ([]DriveTrace, error) {
	r, err := NewReader(strings.NewReader(data))
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// readNext reads data with Next, returning the drives before the error.
func readNext(data string) ([]DriveTrace, error) {
	r, err := NewReader(strings.NewReader(data))
	if err != nil {
		return nil, err
	}
	var out []DriveTrace
	for {
		dt, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, dt)
	}
}

// withBlockSize runs f with blockSize set to n.
func withBlockSize(n int, f func()) {
	old := blockSize
	blockSize = n
	defer func() { blockSize = old }()
	f()
}

// quotedFleet is a short simulated fleet whose serials need quoting: they
// hold commas, quotes and line breaks. Every drive has the given number
// of hours.
func quotedFleet(t testing.TB, hours int) string {
	t.Helper()
	w := simulate.FamilyW()
	w.GoodCount, w.FailedCount = 9, 3
	fleet, err := simulate.New(simulate.Config{Seed: 11, Families: []simulate.FamilyParams{w}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	for i, d := range fleet.Drives() {
		serial := d.Serial
		switch i % 4 {
		case 1:
			serial += ",comma"
		case 2:
			serial += "\"quoted\" \r\nline"
		case 3:
			serial += "\nbreak"
		}
		recs := fleet.Trace(d.Index)
		recs = recs[len(recs)-hours:]
		meta := DriveMeta{Serial: serial, Family: d.Family, Failed: d.Failed, FailHour: d.FailHour}
		if err := tw.WriteDrive(meta, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// rowSpan returns the byte span of data row i, counting from 0 after
// the header.
func rowSpan(data []byte, i int) (int, int) {
	p := 0
	for range i + 1 {
		p += rowEndFrom(data[p:], 0)
	}
	return p, p + rowEndFrom(data[p:], 0)
}

// corrupt returns variants of quotedFleet(t, hours) with one defect each,
// in the middle of drive 6, so the defect falls at a block seam with a
// seam at every row and inside a block with the default block size.
func corrupt(t testing.TB, hours int) map[string]string {
	t.Helper()
	data := quotedFleet(t, hours)
	c, e := rowSpan([]byte(data), 6*hours+hours/2)
	rec, err := csv.NewReader(strings.NewReader(data[c:e])).Read()
	if err != nil {
		t.Fatal(err)
	}
	f0, _ := rowSpan([]byte(data), 0)
	first, err := csv.NewReader(strings.NewReader(data[f0:])).Read()
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(r []string) []string) string {
		var buf strings.Builder
		cw := csv.NewWriter(&buf)
		if err := cw.Write(f(slices.Clone(rec))); err != nil {
			t.Fatal(err)
		}
		cw.Flush()
		return data[:c] + buf.String() + data[e:]
	}
	return map[string]string{
		"bad value":    edit(func(r []string) []string { r[7] = "1e"; return r }),
		"field count":  edit(func(r []string) []string { return r[:len(r)-1] }),
		"meta drift":   edit(func(r []string) []string { r[1] = "Z"; return r }),
		"fail hour":    edit(func(r []string) []string { r[2], r[3] = "true", "-1"; return r }),
		"back in time": edit(func(r []string) []string { r[4] = "-5"; return r }),
		"split serial": edit(func(r []string) []string { r[0] = first[0]; r[1], r[2], r[3] = first[1], first[2], first[3]; return r }),
		"bare quote":   data[:c] + `x"y` + data[c:],
		"unterminated": data[:c] + "\"open\nrest,\n",
	}
}

func TestReadAllDeterminism(t *testing.T) {
	inputs := corrupt(t, 30)
	inputs["valid"] = quotedFleet(t, 30)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, in := range inputs {
		want, wantErr := oracleRead(in)
		if (name == "valid") != (wantErr == nil) {
			t.Fatalf("%s: oracle error %v", name, wantErr)
		}
		if name == "valid" && len(want) != 12 {
			t.Fatalf("oracle read %d drives, want 12", len(want))
		}
		if wantErr != nil {
			want = nil
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, bs := range []int{1, blockSize} {
				runtime.GOMAXPROCS(workers)
				var got []DriveTrace
				var err error
				withBlockSize(bs, func() { got, err = readAll(in) })
				if !reflect.DeepEqual(err, wantErr) {
					t.Fatalf("%s, workers %d, block %d: error %v, want %v", name, workers, bs, err, wantErr)
				}
				if err := sameDrives(got, want); err != nil {
					t.Fatalf("%s, workers %d, block %d: %v", name, workers, bs, err)
				}
				for i, d := range got {
					if cap(d.Records) != len(d.Records) {
						t.Fatalf("%s, workers %d, block %d: drive %d has %d records in a slice of capacity %d",
							name, workers, bs, i, len(d.Records), cap(d.Records))
					}
				}
			}
		}
	}
}

func TestReadAllAfterNext(t *testing.T) {
	data := quotedFleet(t, 20)
	want, err := oracleRead(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, blockSize} {
		withBlockSize(bs, func() {
			r, err := NewReader(strings.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var got []DriveTrace
			for range 5 {
				dt, err := r.Next()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, dt)
			}
			rest, err := r.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if err := sameDrives(append(got, rest...), want); err != nil {
				t.Fatalf("block %d: %v", bs, err)
			}
			if _, err := r.Next(); !errors.Is(err, io.EOF) {
				t.Fatalf("block %d: Next after ReadAll = %v, want EOF", bs, err)
			}
		})
	}
}

// row renders one data row of the native layout.
func row(serial, family, failed, failHour, hour string) string {
	return serial + "," + family + "," + failed + "," + failHour + "," + hour + strings.Repeat(",1", 2*smart.NumAttrs) + "\n"
}

func TestReaderDriveChecks(t *testing.T) {
	header := strings.Join(Header(), ",") + "\n"
	cases := []struct {
		name string
		rows string
		line int
	}{
		{"family drift", row("a", "W", "false", "-1", "0") + row("a", "Q", "false", "-1", "1"), 3},
		{"failed drift", row("a", "W", "true", "9", "0") + row("a", "W", "false", "9", "1"), 3},
		{"fail hour drift", row("a", "W", "true", "9", "0") + row("a", "W", "true", "8", "1"), 3},
		{"failed without fail hour", row("a", "W", "false", "-1", "0") + row("b", "W", "true", "-1", "0"), 3},
		{"split serial", row("a", "W", "false", "-1", "0") + row("b", "W", "false", "-1", "0") + row("a", "W", "false", "-1", "1"), 4},
	}
	for _, c := range cases {
		for _, read := range []func(string) ([]DriveTrace, error){readAll, readNext} {
			_, err := read(header + c.rows)
			var re RowError
			if !errors.As(err, &re) || re.Line != c.line {
				t.Errorf("%s: error %v, want a RowError at line %d", c.name, err, c.line)
			}
		}
	}
}

// FuzzTraceReaderOracle holds the reader to the oracle on any input: the
// same accept or reject, bit-identical drives, and the same first error,
// from ReadAll and from Next, with the default block size and with a seam
// at every row.
func FuzzTraceReaderOracle(f *testing.F) {
	header := strings.Join(Header(), ",") + "\n"
	f.Add(quotedFleet(f, 3))
	f.Add(header)
	f.Add(header + row("a", "W", "false", "-1", "0") + row("a", "W", "false", "-1", "1"))
	f.Add(header + "\r\n" + row(`"a,""b"""`, `"W`+"\r\n"+`"`, "true", "5", "2") + "\n")
	f.Add(header + row("a", "W", "false", "-1", "0")[:40] + "\r")
	f.Add(header + row("a", "W", "0", "+7", "-0"))
	f.Add(header + strings.Replace(row("a", "W", "false", "-1", "0"), ",1,", ",1e3,", 1))
	f.Add(header + strings.Replace(row("a", "W", "false", "-1", "0"), ",1,", ",-0.0125,", 1))
	f.Add(header + `"a` + "\n\nb")
	f.Add(header + `"a"b,`)
	for _, c := range corrupt(f, 3) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data string) {
		want, wantErr := oracleRead(data)
		_, err := NewReader(strings.NewReader(data))
		if (err != nil) != errors.Is(wantErr, errOracleHeader) {
			t.Fatalf("NewReader error %v, oracle %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for _, bs := range []int{1, blockSize} {
			withBlockSize(bs, func() {
				got, err := readNext(data)
				if !reflect.DeepEqual(err, wantErr) {
					t.Fatalf("block %d: Next error %v, oracle %v", bs, err, wantErr)
				}
				if err := sameDrives(got, want); err != nil {
					t.Fatalf("block %d: Next: %v", bs, err)
				}
				got, err = readAll(data)
				if !reflect.DeepEqual(err, wantErr) {
					t.Fatalf("block %d: ReadAll error %v, oracle %v", bs, err, wantErr)
				}
				if wantErr != nil {
					return
				}
				if err := sameDrives(got, want); err != nil {
					t.Fatalf("block %d: ReadAll: %v", bs, err)
				}
			})
		}
	})
}

// FuzzParseNum holds the decoders to strconv: the same bits and the same
// error on every string.
func FuzzParseNum(f *testing.F) {
	for _, s := range []string{"0", "-0", "12", "-12.5", "0.0125", "99.999999", "1e3", "+1", "5.", ".5",
		"NaN", "-Inf", "0x1p-2", "1_000", "123456789012345", "1234567890123456", "0.0000000000000000000001",
		"00.5", "-", "", "9223372036854775807", "-9223372036854775808", "1.5e-7", "4503599627370497"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseNum(s)
		want, wantErr := strconv.ParseFloat(s, 64)
		if math.Float64bits(got) != math.Float64bits(want) || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("parseNum(%q) = %v (%x), %v; strconv %v (%x), %v",
				s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
		n, err := parseInt(s)
		wn, wantErr := strconv.Atoi(s)
		if n != wn || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("parseInt(%q) = %d, %v; strconv %d, %v", s, n, err, wn, wantErr)
		}
	})
}

func TestDecodersDoNotAllocate(t *testing.T) {
	for _, s := range []string{"37", "-12.5", "99.999999", "1.2345678e+06", "-0"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = parseNum(s) }); n != 0 {
			t.Errorf("parseNum(%q) allocates %.0f times", s, n)
		}
	}
	for _, s := range []string{"-1", "167", "+4"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = parseInt(s) }); n != 0 {
			t.Errorf("parseInt(%q) allocates %.0f times", s, n)
		}
	}
}

// BenchmarkTraceRead parses a simulated fleet with ReadAll. It is a
// diagnostic for the reader alone; the evaluate pipeline's numbers come
// from the whole-pipeline benchmark.
func BenchmarkTraceRead(b *testing.B) {
	data := []byte(quotedFleet(b, 400))
	drives, err := readAll(string(data))
	if err != nil {
		b.Fatal(err)
	}
	records := 0
	for _, d := range drives {
		records += len(d.Records)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(records) * float64(b.N)
	b.ReportMetric(n/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
}
