package smart

import (
	"math"
	"strings"
	"testing"
)

func TestCatalogueSize(t *testing.T) {
	// Record fixes the attribute arrays at 23 entries; the catalogue must
	// match exactly.
	if len(Catalogue) != 23 {
		t.Fatalf("len(Catalogue) = %d, want 23", len(Catalogue))
	}
	if NumAttrs != 23 {
		t.Fatalf("NumAttrs = %d, want 23", NumAttrs)
	}
}

func TestCatalogueIDsUnique(t *testing.T) {
	seen := make(map[AttrID]bool)
	for _, a := range Catalogue {
		if seen[a.ID] {
			t.Errorf("duplicate attribute ID %d", a.ID)
		}
		seen[a.ID] = true
		if a.Name == "" {
			t.Errorf("attribute %d has empty name", a.ID)
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	for i, a := range Catalogue {
		got, ok := Index(a.ID)
		if !ok || got != i {
			t.Errorf("Index(%d) = %d, %v; want %d, true", a.ID, got, ok, i)
		}
		info, ok := Info(a.ID)
		if !ok || info.ID != a.ID {
			t.Errorf("Info(%d) = %+v, %v", a.ID, info, ok)
		}
	}
	if _, ok := Index(AttrID(999)); ok {
		t.Error("Index(999) should not be found")
	}
	if _, ok := Info(AttrID(999)); ok {
		t.Error("Info(999) should not be found")
	}
}

// TestIndexTableMatchesCatalogue: the array lookup behind Index, Info,
// NormalizedOf and RawOf agrees with a linear scan of Catalogue for
// every id in [−1, 300], catalogued or not.
func TestIndexTableMatchesCatalogue(t *testing.T) {
	var r Record
	for i := range r.Raw {
		r.Raw[i] = float64(i + 1)
		r.Normalized[i] = float64(-i - 1)
	}
	for id := AttrID(-1); id <= 300; id++ {
		want := -1
		for i, a := range Catalogue {
			if a.ID == id {
				want = i
			}
		}
		i, ok := Index(id)
		if ok != (want >= 0) || (ok && i != want) {
			t.Fatalf("Index(%d) = %d, %v; catalogue position %d", id, i, ok, want)
		}
		info, ok := Info(id)
		if ok != (want >= 0) || (ok && info != Catalogue[want]) {
			t.Fatalf("Info(%d) = %+v, %v; catalogue position %d", id, info, ok, want)
		}
		wantRaw, wantNorm := 0.0, 0.0
		if want >= 0 {
			wantRaw, wantNorm = r.Raw[want], r.Normalized[want]
		}
		if got := r.RawOf(id); got != wantRaw {
			t.Fatalf("RawOf(%d) = %v, want %v", id, got, wantRaw)
		}
		if got := r.NormalizedOf(id); got != wantNorm {
			t.Fatalf("NormalizedOf(%d) = %v, want %v", id, got, wantNorm)
		}
	}
}

func TestName(t *testing.T) {
	if got := Name(ReallocatedSectors); got != "Reallocated Sectors Count" {
		t.Errorf("Name(5) = %q", got)
	}
	if got := Name(AttrID(250)); got != "SMART 250" {
		t.Errorf("Name(250) = %q", got)
	}
}

func TestRecordAccessors(t *testing.T) {
	var r Record
	i, _ := Index(TemperatureCelsius)
	r.Normalized[i] = 80
	r.Raw[i] = 41
	if got := r.NormalizedOf(TemperatureCelsius); got != 80 {
		t.Errorf("NormalizedOf = %v, want 80", got)
	}
	if got := r.RawOf(TemperatureCelsius); got != 41 {
		t.Errorf("RawOf = %v, want 41", got)
	}
	if got := r.NormalizedOf(AttrID(999)); got != 0 {
		t.Errorf("NormalizedOf(unknown) = %v, want 0", got)
	}
	if got := r.RawOf(AttrID(999)); got != 0 {
		t.Errorf("RawOf(unknown) = %v, want 0", got)
	}
}

func TestFeatureSetSizesMatchPaper(t *testing.T) {
	if n := len(BasicFeatures()); n != 12 {
		t.Errorf("basic feature set has %d features, want 12 (Table II)", n)
	}
	if n := len(CriticalFeatures()); n != 13 {
		t.Errorf("critical feature set has %d features, want 13 (§IV-B)", n)
	}
	if n := len(ExpertFeatures()); n != 19 {
		t.Errorf("expert feature set has %d features, want 19 ([11])", n)
	}
}

func TestCriticalFeatureComposition(t *testing.T) {
	// §IV-B: 9 normalized values, 1 raw value and 3 change rates.
	var norm, raw, rate int
	for _, f := range CriticalFeatures() {
		switch f.Kind {
		case Normalized:
			norm++
		case Raw:
			raw++
		case ChangeRate:
			rate++
			if f.IntervalHours != 6 {
				t.Errorf("change rate %v uses %dh interval, want 6h", f, f.IntervalHours)
			}
		}
	}
	if norm != 9 || raw != 1 || rate != 3 {
		t.Errorf("critical composition = %d norm, %d raw, %d rates; want 9/1/3", norm, raw, rate)
	}
	// Current Pending Sector Count must be excluded entirely.
	for _, f := range CriticalFeatures() {
		if f.Attr == CurrentPendingSectors {
			t.Errorf("critical set must not contain Current Pending Sector Count, has %v", f)
		}
	}
}

func TestFeatureString(t *testing.T) {
	tests := []struct {
		f    Feature
		want string
	}{
		{Feature{Attr: PowerOnHours, Kind: Normalized}, "Power On Hours"},
		{Feature{Attr: ReallocatedSectors, Kind: Raw}, "Reallocated Sectors Count (raw)"},
		{Feature{Attr: HardwareECCRecovered, Kind: ChangeRate, IntervalHours: 6}, "Δ6h Hardware ECC Recovered"},
		{Feature{Attr: ReallocatedSectors, Kind: ChangeRate, IntervalHours: 6, RateOfRaw: true}, "Δ6h Reallocated Sectors Count (raw)"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if Normalized.String() != "normalized" || Raw.String() != "raw" || ChangeRate.String() != "rate" {
		t.Error("Kind.String mismatch")
	}
	if !strings.HasPrefix(Kind(9).String(), "Kind(") {
		t.Error("unknown Kind should format as Kind(n)")
	}
}

func TestMaxInterval(t *testing.T) {
	if got := BasicFeatures().MaxInterval(); got != 0 {
		t.Errorf("basic MaxInterval = %d, want 0", got)
	}
	if got := CriticalFeatures().MaxInterval(); got != 6 {
		t.Errorf("critical MaxInterval = %d, want 6", got)
	}
	if got := ExpertFeatures().MaxInterval(); got != 24 {
		t.Errorf("expert MaxInterval = %d, want 24", got)
	}
}

func TestNames(t *testing.T) {
	names := CriticalFeatures().Names()
	if len(names) != 13 {
		t.Fatalf("Names returned %d entries", len(names))
	}
	for i, n := range names {
		if n == "" {
			t.Errorf("name %d is empty", i)
		}
	}
}

// traceWithHours builds a trace with the given hours, where attribute values
// ramp linearly with the hour so change rates are predictable.
func traceWithHours(hours ...int) []Record {
	trace := make([]Record, len(hours))
	ri, _ := Index(RawReadErrorRate)
	hi, _ := Index(HardwareECCRecovered)
	si, _ := Index(ReallocatedSectors)
	for i, h := range hours {
		trace[i].Hour = h
		trace[i].Normalized[ri] = float64(100 + h) // slope 1 per hour
		trace[i].Normalized[hi] = float64(200 - 2*h)
		trace[i].Raw[si] = float64(3 * h)
	}
	return trace
}

func TestExtractChangeRates(t *testing.T) {
	fs := FeatureSet{
		{Attr: RawReadErrorRate, Kind: ChangeRate, IntervalHours: 6},
		{Attr: HardwareECCRecovered, Kind: ChangeRate, IntervalHours: 6},
		{Attr: ReallocatedSectors, Kind: ChangeRate, IntervalHours: 6, RateOfRaw: true},
	}
	trace := traceWithHours(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	dst := make([]float64, len(fs))

	// Index 12 (hour 12) can look back exactly 6 hours.
	if !fs.Extract(trace, 12, dst) {
		t.Fatal("Extract failed at i=12")
	}
	if dst[0] != 6 { // slope 1/h over 6h
		t.Errorf("Δ6h RRER = %v, want 6", dst[0])
	}
	if dst[1] != -12 { // slope -2/h over 6h
		t.Errorf("Δ6h HEC = %v, want -12", dst[1])
	}
	if dst[2] != 18 { // slope 3/h over 6h (raw)
		t.Errorf("Δ6h RSC raw = %v, want 18", dst[2])
	}
}

func TestExtractTooEarly(t *testing.T) {
	fs := FeatureSet{{Attr: RawReadErrorRate, Kind: ChangeRate, IntervalHours: 6}}
	trace := traceWithHours(0, 1, 2, 3)
	dst := make([]float64, 1)
	if fs.Extract(trace, 3, dst) {
		t.Error("Extract should fail when history is shallower than the interval")
	}
	if fs.Extract(trace, 0, dst) {
		t.Error("Extract should fail at the first record")
	}
}

func TestExtractScalesAcrossGaps(t *testing.T) {
	// A missing-sample gap: looking back 6h from hour 20 finds hour 8,
	// so the delta must be rescaled from 12h of elapsed time to the 6h
	// interval.
	fs := FeatureSet{{Attr: RawReadErrorRate, Kind: ChangeRate, IntervalHours: 6}}
	trace := traceWithHours(0, 8, 20)
	dst := make([]float64, 1)
	if !fs.Extract(trace, 2, dst) {
		t.Fatal("Extract failed")
	}
	if dst[0] != 6 { // true slope is 1/h, so the 6h-rate is 6 regardless of gap
		t.Errorf("gap-scaled rate = %v, want 6", dst[0])
	}
}

func TestExtractPlainValues(t *testing.T) {
	fs := FeatureSet{
		{Attr: RawReadErrorRate, Kind: Normalized},
		{Attr: ReallocatedSectors, Kind: Raw},
	}
	trace := traceWithHours(0, 1, 2)
	dst := make([]float64, 2)
	if !fs.Extract(trace, 2, dst) {
		t.Fatal("Extract failed")
	}
	if dst[0] != 102 || dst[1] != 6 {
		t.Errorf("Extract = %v, want [102 6]", dst)
	}
}

func TestExtractShortDst(t *testing.T) {
	fs := BasicFeatures()
	trace := traceWithHours(0)
	if fs.Extract(trace, 0, make([]float64, 3)) {
		t.Error("Extract should fail when dst is too short")
	}
}

func TestValidValueDomains(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		v         float64
		norm, raw bool
	}{
		{0, true, true},
		{100, true, true},
		{253, true, true},
		{255, true, true},
		{256, false, true},
		{-1, false, false},
		{nan, false, false},
		{math.Inf(1), false, false},
		{math.Inf(-1), false, false},
		{2.8e14, false, true}, // 48-bit raw counter
		{1e16, false, false},
	}
	for _, c := range cases {
		if got := ValidNormalized(c.v); got != c.norm {
			t.Errorf("ValidNormalized(%v) = %v, want %v", c.v, got, c.norm)
		}
		if got := ValidRaw(c.v); got != c.raw {
			t.Errorf("ValidRaw(%v) = %v, want %v", c.v, got, c.raw)
		}
	}
}

func TestCorruptValuesAndRepair(t *testing.T) {
	var prev, rec Record
	for i := 0; i < NumAttrs; i++ {
		prev.Normalized[i] = 100
		prev.Raw[i] = float64(i)
		rec.Normalized[i] = 90
		rec.Raw[i] = float64(2 * i)
	}
	if n := rec.CorruptValues(); n != 0 {
		t.Fatalf("clean record reports %d corrupt values", n)
	}
	rec.Normalized[3] = math.NaN()
	rec.Raw[5] = math.Inf(1)
	rec.Raw[7] = -4
	if n := rec.CorruptValues(); n != 3 {
		t.Fatalf("CorruptValues = %d, want 3", n)
	}
	if n := rec.Repair(&prev); n != 3 {
		t.Fatalf("Repair = %d, want 3", n)
	}
	if rec.Normalized[3] != 100 || rec.Raw[5] != 5 || rec.Raw[7] != 7 {
		t.Errorf("repair carried wrong values: %v %v %v",
			rec.Normalized[3], rec.Raw[5], rec.Raw[7])
	}
	if rec.CorruptValues() != 0 {
		t.Error("repaired record still corrupt")
	}
	// Untouched values survive.
	if rec.Normalized[0] != 90 || rec.Raw[0] != 0 {
		t.Error("repair touched clean values")
	}
}

func TestSanitizeTraceCleanIsFree(t *testing.T) {
	recs := traceWithHours(0, 1, 2, 3)
	out, dropped := SanitizeTrace(recs)
	if dropped != 0 {
		t.Fatalf("dropped = %d on a clean trace", dropped)
	}
	if &out[0] != &recs[0] {
		t.Error("clean trace was copied")
	}
}

func TestSanitizeTraceDrops(t *testing.T) {
	recs := traceWithHours(0, 1, 2, 3, 4, 5)
	recs[1].Normalized[0] = math.NaN() // corrupt values
	recs[3].Hour = 2                   // duplicate hour vs. surviving predecessor
	recs[4].Hour = 1                   // out of order
	out, dropped := SanitizeTrace(recs)
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	if len(out) != 3 || out[0].Hour != 0 || out[1].Hour != 2 || out[2].Hour != 5 {
		hours := make([]int, len(out))
		for i := range out {
			hours[i] = out[i].Hour
		}
		t.Errorf("surviving hours = %v, want [0 2 5]", hours)
	}
	// The input is never mutated.
	if recs[1].Hour != 1 {
		t.Error("SanitizeTrace mutated its input")
	}
}
