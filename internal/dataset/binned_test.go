package dataset

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// column wraps scalar values into the row-major matrix BinColumn reads.
func column(vals ...float64) [][]float64 {
	x := make([][]float64, len(vals))
	for i, v := range vals {
		x[i] = []float64{v}
	}
	return x
}

// checkColumnInvariants asserts every structural property a quantized
// column must satisfy, for any input whatsoever. It is shared by the unit
// tests and the fuzz target.
func checkColumnInvariants(t testing.TB, x [][]float64, f, maxBins int, col BinnedColumn) {
	t.Helper()
	if col.NumBins > maxBins {
		t.Fatalf("NumBins %d exceeds maxBins %d", col.NumBins, maxBins)
	}
	if len(col.Lower) != col.NumBins || len(col.Upper) != col.NumBins {
		t.Fatalf("bounds length %d/%d, want NumBins %d", len(col.Lower), len(col.Upper), col.NumBins)
	}
	for b := 0; b < col.NumBins; b++ {
		if col.Lower[b] > col.Upper[b] {
			t.Fatalf("bin %d inverted: [%v, %v]", b, col.Lower[b], col.Upper[b])
		}
		if b > 0 && !(col.Upper[b-1] < col.Lower[b]) {
			t.Fatalf("bins %d,%d not strictly increasing: upper %v, next lower %v",
				b-1, b, col.Upper[b-1], col.Lower[b])
		}
	}
	sawMissing := false
	codeOf := map[float64]uint8{}
	for i := range x {
		v := x[i][f]
		c := col.Codes[i]
		if math.IsNaN(v) {
			sawMissing = true
			if int(c) != col.NumBins {
				t.Fatalf("NaN at row %d got code %d, want reserved %d", i, c, col.NumBins)
			}
			continue
		}
		if int(c) >= col.NumBins {
			t.Fatalf("finite %v at row %d got out-of-range code %d (NumBins %d)", v, i, c, col.NumBins)
		}
		if v < col.Lower[c] || v > col.Upper[c] {
			t.Fatalf("value %v coded into bin %d [%v, %v]", v, c, col.Lower[c], col.Upper[c])
		}
		if prev, ok := codeOf[v]; ok && prev != c {
			t.Fatalf("equal values %v straddle bins %d and %d", v, prev, c)
		}
		codeOf[v] = c
	}
	if sawMissing != col.Missing {
		t.Fatalf("Missing = %v but saw-missing = %v", col.Missing, sawMissing)
	}
	if len(codeOf) <= maxBins {
		// The exactness fast path: with ≤ maxBins distinct finite values
		// every bin must be a singleton, or binned/exact tree equivalence
		// breaks.
		for b := 0; b < col.NumBins; b++ {
			if distinct(col.Lower[b], col.Upper[b]) {
				t.Fatalf("%d distinct values ≤ maxBins %d but bin %d spans [%v, %v]",
					len(codeOf), maxBins, b, col.Lower[b], col.Upper[b])
			}
		}
	}
}

func TestBinColumnSingletonFastPath(t *testing.T) {
	x := column(0.5, 0.25, 0.5, 0.75, 0.25, 0.75, 0.5)
	col := BinColumn(x, 0, 255)
	checkColumnInvariants(t, x, 0, 255, col)
	if col.NumBins != 3 {
		t.Fatalf("NumBins = %d, want 3 singleton bins", col.NumBins)
	}
	if col.Missing {
		t.Fatal("Missing set with no NaN present")
	}
	// Midpoint between singleton bins matches the exact-path formula.
	if got, want := col.EdgeBetween(0, 1), 0.25+(0.5-0.25)/2; got != want {
		t.Fatalf("EdgeBetween(0,1) = %v, want %v", got, want)
	}
}

func TestBinColumnQuantile(t *testing.T) {
	// 1000 distinct values into 10 bins: expect near-equal occupancy.
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	x := column(vals...)
	col := BinColumn(x, 0, 10)
	checkColumnInvariants(t, x, 0, 10, col)
	if col.NumBins != 10 {
		t.Fatalf("NumBins = %d, want 10", col.NumBins)
	}
	counts := make([]int, col.NumBins)
	for _, c := range col.Codes {
		counts[c]++
	}
	for b, n := range counts {
		if n < 50 || n > 200 {
			t.Errorf("bin %d holds %d of 1000 samples; quantile binning should stay near 100", b, n)
		}
	}
}

func TestBinColumnHeavyTies(t *testing.T) {
	// One value occupies 90% of the column; ties must never straddle a
	// boundary and the later bins must still materialize.
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 7
	}
	for i := 0; i < 20; i++ {
		vals[i] = float64(i)
	}
	x := column(vals...)
	col := BinColumn(x, 0, 4)
	checkColumnInvariants(t, x, 0, 4, col)
	if col.NumBins < 2 {
		t.Fatalf("NumBins = %d; the tie run swallowed every bin", col.NumBins)
	}
}

func TestBinColumnNaNAndInf(t *testing.T) {
	x := column(math.NaN(), math.Inf(1), 0, math.Inf(-1), 1, math.NaN(), 0)
	col := BinColumn(x, 0, 255)
	checkColumnInvariants(t, x, 0, 255, col)
	if !col.Missing {
		t.Fatal("Missing not set despite NaNs")
	}
	if col.NumBins != 4 { // -Inf, 0, 1, +Inf
		t.Fatalf("NumBins = %d, want 4", col.NumBins)
	}
	if col.MissingCode() != 4 {
		t.Fatalf("MissingCode = %d, want 4", col.MissingCode())
	}
}

func TestBinColumnAllMissing(t *testing.T) {
	x := column(math.NaN(), math.NaN())
	col := BinColumn(x, 0, 8)
	checkColumnInvariants(t, x, 0, 8, col)
	if col.NumBins != 0 {
		t.Fatalf("NumBins = %d for an all-NaN column, want 0", col.NumBins)
	}
}

func TestBinColumnSampleOrderIndependent(t *testing.T) {
	// Binning is a pure function of the value multiset: shuffling the
	// rows must yield bit-identical bin bounds and per-value codes.
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = math.Floor(rng.Float64()*50) / 50
		if i%7 == 0 {
			// Both zeros, so a bound's sign cannot follow sample order.
			vals[i] = math.Copysign(0, float64(i%2*2-1))
		}
	}
	x := column(vals...)
	ref := BinColumn(x, 0, 16)
	perm := rng.Perm(len(vals))
	shuffled := make([]float64, len(vals))
	for i, p := range perm {
		shuffled[i] = vals[p]
	}
	sx := column(shuffled...)
	got := BinColumn(sx, 0, 16)
	if got.NumBins != ref.NumBins {
		t.Fatalf("NumBins %d after shuffle, want %d", got.NumBins, ref.NumBins)
	}
	for b := 0; b < ref.NumBins; b++ {
		if math.Float64bits(got.Lower[b]) != math.Float64bits(ref.Lower[b]) ||
			math.Float64bits(got.Upper[b]) != math.Float64bits(ref.Upper[b]) {
			t.Fatalf("bin %d bounds changed under shuffle", b)
		}
	}
	for i, p := range perm {
		if got.Codes[i] != ref.Codes[p] {
			t.Fatalf("row %d code %d after shuffle, want %d", i, got.Codes[i], ref.Codes[p])
		}
	}
}

func TestBinMatrixValidation(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}}
	if _, err := BinMatrix(x, 0); err == nil {
		t.Error("maxBins 0 accepted")
	}
	if _, err := BinMatrix(x, MaxBinsLimit+1); err == nil {
		t.Error("maxBins beyond the uint8 ceiling accepted")
	}
	if _, err := BinMatrix(nil, 8); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := BinMatrix([][]float64{{1, 2}, {3}}, 8); err == nil {
		t.Error("ragged matrix accepted")
	}
	bm, err := BinMatrix(x, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bm.NumSamples != 2 || bm.NumFeatures != 2 || len(bm.Cols) != 2 {
		t.Fatalf("BinMatrix shape = %d×%d with %d cols", bm.NumSamples, bm.NumFeatures, len(bm.Cols))
	}
}

// FuzzBinColumn hammers the binning rule with adversarial value patterns —
// ties, ±Inf, NaN, denormals, values differing in one ulp — and asserts
// the full invariant set on every input. The raw bytes decode to float64s
// so the fuzzer can reach any bit pattern, and the first byte picks
// maxBins.
func FuzzBinColumn(f *testing.F) {
	add := func(maxBins byte, vals ...float64) {
		data := []byte{maxBins}
		for _, v := range vals {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			data = append(data, buf[:]...)
		}
		f.Add(data)
	}
	add(4, 1, 1, 1, 2, 2, 3)
	add(2, math.Inf(-1), math.Inf(1), math.NaN(), 0)
	add(8, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64)
	add(3, 1, math.Nextafter(1, 2), math.Nextafter(1, 0), 1)
	add(255, 0.5, 0.25, 0.75)
	add(1, 5, 4, 3, 2, 1, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			t.Skip()
		}
		maxBins := int(data[0])%MaxBinsLimit + 1
		body := data[1:]
		n := len(body) / 8
		if n == 0 {
			t.Skip()
		}
		if n > 512 {
			n = 512
		}
		x := make([][]float64, n)
		for i := 0; i < n; i++ {
			x[i] = []float64{math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))}
		}
		col := BinColumn(x, 0, maxBins)
		checkColumnInvariants(t, x, 0, maxBins, col)
	})
}

// TestCodeOfMatchesConstruction: quantizing a corpus value after the fact
// must reproduce the code BinColumn assigned at construction — the
// binned inference engine depends on Quantize being a pure re-derivation.
func TestCodeOfMatchesConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 0, 600)
	for i := 0; i < 500; i++ {
		vals = append(vals, math.Round(rng.NormFloat64()*8)/4)
	}
	vals = append(vals, math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64)
	x := column(vals...)
	for _, maxBins := range []int{1, 7, 32, 255} {
		col := BinColumn(x, 0, maxBins)
		for i := range x {
			if got := col.CodeOf(x[i][0]); got != col.Codes[i] {
				t.Fatalf("maxBins %d: CodeOf(%v) = %d, construction code %d",
					maxBins, x[i][0], got, col.Codes[i])
			}
		}
	}
}

// TestCodeOfAboveTopBin: finite values above the corpus maximum take the
// reserved always-right code.
func TestCodeOfAboveTopBin(t *testing.T) {
	col := BinColumn(column(1, 2, 3), 0, 255)
	if got := col.CodeOf(4); int(got) != col.NumBins {
		t.Fatalf("CodeOf(4) = %d, want reserved %d", got, col.NumBins)
	}
}

// TestCutFor covers the remapping rule: thresholds in the gaps between
// bins (where trained trees place them) are exact; thresholds strictly
// inside a bin's value range are not.
func TestCutFor(t *testing.T) {
	col := BinColumn(column(1, 1, 2, 2, 5, 5, 9), 0, 4)
	if col.NumBins != 4 {
		t.Fatalf("fixture drifted: NumBins = %d, want 4", col.NumBins)
	}
	cases := []struct {
		t     float64
		cut   uint8
		exact bool
	}{
		{1.5, 1, true},          // gap between bins 0 and 1
		{2, 1, true},            // exactly a bin's lower bound: that bin routes right
		{3.5, 2, true},          // gap between bins 1 and 2
		{100, 4, true},          // above everything: all finite bins left
		{math.Inf(-1), 0, true}, // nothing below -Inf
		{0.5, 0, true},          // below everything: all bins right
	}
	for _, c := range cases {
		cut, exact := col.CutFor(c.t)
		if cut != c.cut || exact != c.exact {
			t.Errorf("CutFor(%v) = (%d, %v), want (%d, %v)", c.t, cut, exact, c.cut, c.exact)
		}
	}
	// A multi-value bin straddled by a threshold cannot be remapped.
	wide := BinColumn(column(1, 2, 3, 4, 5, 6, 7, 8), 0, 2)
	if wide.NumBins != 2 {
		t.Fatalf("fixture drifted: NumBins = %d, want 2", wide.NumBins)
	}
	if _, exact := wide.CutFor(wide.Lower[0] + 0.5); exact {
		t.Fatalf("threshold inside bin 0 [%v, %v] reported exact", wide.Lower[0], wide.Upper[0])
	}
}

// TestQuantizeRoundTrip: Quantize over the corpus itself reproduces the
// columnar construction codes row for row, and rejects short rows.
func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := make([][]float64, 200)
	for i := range x {
		row := make([]float64, 4)
		for f := range row {
			row[f] = math.Round(rng.NormFloat64() * 4)
			if rng.Intn(17) == 0 {
				row[f] = math.NaN()
			}
		}
		x[i] = row
	}
	bm, err := BinMatrix(x, 16)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := bm.Quantize(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range codes {
		for f, c := range row {
			if want := bm.Cols[f].Codes[i]; c != want {
				t.Fatalf("row %d feature %d: Quantize code %d, construction code %d", i, f, c, want)
			}
		}
	}
	if _, err := bm.Quantize([][]float64{{1, 2}}); err == nil {
		t.Fatal("short row accepted")
	}
}

// TestEdgeBetweenInfiniteBounds pins the threshold rule at infinite bin
// bounds: the naive midpoint of a −Inf upper bound is NaN, which would
// mis-route the whole left bin at inference (x < NaN is always false).
// Found by the cross-path equivalence harness: the tree trained over a
// corpus with −Inf values failed to seal on its NaN threshold.
func TestEdgeBetweenInfiniteBounds(t *testing.T) {
	col := BinColumn([][]float64{
		{math.Inf(-1)}, {math.Inf(-1)}, {-3}, {-3}, {7}, {7}, {math.Inf(1)}, {math.Inf(1)},
	}, 0, 8)
	if col.NumBins != 4 {
		t.Fatalf("NumBins = %d, want 4 singleton bins", col.NumBins)
	}
	// −Inf bin to finite bin: threshold is the right bin's lower bound.
	if got := col.EdgeBetween(0, 1); got != -3 {
		t.Fatalf("EdgeBetween(-Inf bin, -3 bin) = %v, want -3", got)
	}
	// Finite bin to +Inf bin: the midpoint +Inf routes all finite left.
	if got := col.EdgeBetween(2, 3); !math.IsInf(got, 1) {
		t.Fatalf("EdgeBetween(7 bin, +Inf bin) = %v, want +Inf", got)
	}
	for a := 0; a < col.NumBins; a++ {
		for b := a + 1; b < col.NumBins; b++ {
			tr := col.EdgeBetween(a, b)
			if math.IsNaN(tr) {
				t.Fatalf("EdgeBetween(%d,%d) is NaN", a, b)
			}
			// The threshold must actually separate the bins under the
			// inference rule x < t.
			if !(col.Upper[a] < tr) {
				t.Fatalf("EdgeBetween(%d,%d) = %v does not route Upper[%d]=%v left", a, b, tr, a, col.Upper[a])
			}
			if col.Lower[b] < tr {
				t.Fatalf("EdgeBetween(%d,%d) = %v routes Lower[%d]=%v left", a, b, tr, b, col.Lower[b])
			}
		}
	}
}

// TestEdgeBetweenBothInfinite covers the degenerate two-bin column
// {−Inf}, {+Inf}: any finite threshold separates, and 0 is used.
func TestEdgeBetweenBothInfinite(t *testing.T) {
	col := BinColumn([][]float64{{math.Inf(-1)}, {math.Inf(1)}}, 0, 8)
	if col.NumBins != 2 {
		t.Fatalf("NumBins = %d, want 2", col.NumBins)
	}
	if got := col.EdgeBetween(0, 1); got != 0 {
		t.Fatalf("EdgeBetween(-Inf bin, +Inf bin) = %v, want 0", got)
	}
}
