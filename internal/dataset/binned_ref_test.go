package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// refBinColumn is the comparison-sort binning rule BinColumn replaced,
// kept as the oracle: sort the finite values with sort.Float64s, derive
// the bounds with binBounds, and code every sample by binary search over
// the upper bounds. Its zero bounds keep whichever sign the sort left
// first; everything else must match BinColumn bit for bit.
func refBinColumn(x [][]float64, f, maxBins int) BinnedColumn {
	col := BinnedColumn{Codes: make([]uint8, len(x))}
	vals := make([]float64, 0, len(x))
	for i := range x {
		if v := x[i][f]; !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	if len(vals) > 0 {
		col.Lower, col.Upper = binBounds(vals, maxBins)
		col.NumBins = len(col.Upper)
	}
	for i := range x {
		v := x[i][f]
		if math.IsNaN(v) {
			col.Codes[i] = uint8(col.NumBins)
			col.Missing = true
			continue
		}
		col.Codes[i] = refCodeOf(&col, v)
	}
	return col
}

// refCodeOf is the old CodeOf: the smallest bin whose upper bound
// covers v, NaN to the reserved code.
func refCodeOf(c *BinnedColumn, v float64) uint8 {
	if math.IsNaN(v) {
		return uint8(c.NumBins)
	}
	return uint8(sort.SearchFloat64s(c.Upper, v))
}

// zeroFolded returns v's bits with −0 read as +0: the one difference
// the reference rule is allowed.
func zeroFolded(v float64) uint64 {
	if b := math.Float64bits(v); b != signBit {
		return b
	}
	return 0
}

// matchReference asserts that col is the reference rule's column for
// x, and that CodeOf agrees with the reference lookup on every probe.
func matchReference(t testing.TB, x [][]float64, maxBins int, col BinnedColumn, probes []float64) {
	t.Helper()
	ref := refBinColumn(x, 0, maxBins)
	if col.NumBins != ref.NumBins || col.Missing != ref.Missing {
		t.Fatalf("maxBins %d: NumBins/Missing = %d/%v, reference %d/%v",
			maxBins, col.NumBins, col.Missing, ref.NumBins, ref.Missing)
	}
	for b := 0; b < ref.NumBins; b++ {
		if zeroFolded(col.Lower[b]) != zeroFolded(ref.Lower[b]) || zeroFolded(col.Upper[b]) != zeroFolded(ref.Upper[b]) {
			t.Fatalf("maxBins %d: bin %d = [%v, %v], reference [%v, %v]",
				maxBins, b, col.Lower[b], col.Upper[b], ref.Lower[b], ref.Upper[b])
		}
		if math.Float64bits(col.Lower[b]) == signBit || math.Float64bits(col.Upper[b]) == signBit {
			t.Fatalf("maxBins %d: bin %d stores a −0 bound", maxBins, b)
		}
	}
	for i := range x {
		if col.Codes[i] != ref.Codes[i] {
			t.Fatalf("maxBins %d: row %d (%v) code %d, reference %d", maxBins, i, x[i][0], col.Codes[i], ref.Codes[i])
		}
	}
	for _, v := range probes {
		if got, want := col.CodeOf(v), refCodeOf(&ref, v); got != want {
			t.Fatalf("maxBins %d: CodeOf(%v) = %d, reference %d", maxBins, v, got, want)
		}
	}
}

// edgeProbes are the values every CodeOf comparison tries besides the
// corpus: the infinities, NaNs of both signs, both zeros and the
// extremes of the finite range.
var edgeProbes = []float64{
	math.Inf(-1), math.Inf(1), math.NaN(), -math.NaN(), math.Float64frombits(0xFFF8000000000001),
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// randomColumn draws a column mixing the value patterns that stress the
// rule: heavy ties, both zeros, denormals, infinities, NaNs and
// neighbours one ulp apart.
func randomColumn(rng *rand.Rand, n int) []float64 {
	pool := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, math.Nextafter(1, 2), math.Nextafter(1, 0)}
	vals := make([]float64, n)
	scale := math.Pow(10, float64(rng.Intn(7)-3))
	for i := range vals {
		switch r := rng.Intn(10); {
		case r < 2:
			vals[i] = pool[rng.Intn(len(pool))]
		case r < 5:
			vals[i] = float64(rng.Intn(20) - 5)
		default:
			vals[i] = rng.NormFloat64() * scale
		}
	}
	return vals
}

// TestBinColumnMatchesReference compares the radix binning with the
// reference rule on random columns of every size class and bin budget.
func TestBinColumnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for c := 0; c < 600; c++ {
		n := 1 + rng.Intn(400)
		if c%50 == 0 {
			n = 5000 + rng.Intn(5000)
		}
		vals := randomColumn(rng, n)
		x := column(vals...)
		maxBins := 1 + rng.Intn(MaxBinsLimit)
		probes := append(append([]float64(nil), edgeProbes...), randomColumn(rng, 64)...)
		matchReference(t, x, maxBins, BinColumn(x, 0, maxBins), probes)
	}
}

// FuzzBinColumnOracle decodes arbitrary bit patterns into a column and a
// set of probes, and requires BinColumn and CodeOf to agree with the
// reference rule: codes, bin count, missing flag, the bits of every
// bound (zero sign aside), and the code of every probe, corpus value or
// not.
func FuzzBinColumnOracle(f *testing.F) {
	add := func(maxBins, nProbes byte, vals ...float64) {
		data := []byte{maxBins, nProbes}
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(data)
	}
	negZero := math.Copysign(0, -1)
	add(4, 1, 1, 1, 1, 2, 2, 3, 2.5)
	add(8, 2, negZero, 0, 1, 0, negZero)
	add(8, 1, 0, negZero, 1, negZero)
	add(2, 2, math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Inf(1), math.NaN())
	add(3, 3, 1, math.Nextafter(1, 2), math.Nextafter(1, 0), 1, math.SmallestNonzeroFloat64, -1, 7)
	add(255, 0, 0.5, 0.25, 0.75)
	add(1, 1, 5, 4, 3, 2, 1, 0, -0.5)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			t.Skip()
		}
		maxBins := int(data[0])%MaxBinsLimit + 1
		vals := make([]float64, (len(data)-2)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[2+8*i:]))
		}
		np := min(int(data[1])%8, len(vals)-1)
		probes, corpus := vals[:np], vals[np:]
		if len(corpus) > 512 {
			corpus = corpus[:512]
		}
		x := column(corpus...)
		col := BinColumn(x, 0, maxBins)
		checkColumnInvariants(t, x, 0, maxBins, col)
		matchReference(t, x, maxBins, col, append(probes, edgeProbes...))
	})
}

// binMatrixFixture draws a 13-feature matrix of distinct rows: counter-
// like integer columns with heavy ties, continuous columns, and a few
// NaNs.
func binMatrixFixture(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		row := make([]float64, 13)
		for f := range row {
			switch f % 3 {
			case 0:
				row[f] = float64(rng.Intn(40 * (f + 1)))
			case 1:
				row[f] = 100 - float64(rng.Intn(8))
			default:
				row[f] = rng.NormFloat64() * 50
			}
			if rng.Intn(97) == 0 {
				row[f] = math.NaN()
			}
		}
		row[12] = float64(i) // keeps every row distinct
		x[i] = row
	}
	return x
}

// sameMatrix reports the first difference between two binned matrices,
// comparing bounds bit for bit.
func sameMatrix(a, b *BinnedMatrix) error {
	if a.NumSamples != b.NumSamples || a.NumFeatures != b.NumFeatures || a.MaxBins != b.MaxBins {
		return fmt.Errorf("shape %d×%d/%d vs %d×%d/%d", a.NumSamples, a.NumFeatures, a.MaxBins,
			b.NumSamples, b.NumFeatures, b.MaxBins)
	}
	for f := range a.Cols {
		ca, cb := &a.Cols[f], &b.Cols[f]
		if ca.NumBins != cb.NumBins || ca.Missing != cb.Missing || *ca.upper != *cb.upper {
			return fmt.Errorf("feature %d: bins/missing/table differ", f)
		}
		for k := 0; k < ca.NumBins; k++ {
			if math.Float64bits(ca.Lower[k]) != math.Float64bits(cb.Lower[k]) ||
				math.Float64bits(ca.Upper[k]) != math.Float64bits(cb.Upper[k]) {
				return fmt.Errorf("feature %d bin %d bounds differ", f, k)
			}
		}
		for i := range ca.Codes {
			if ca.Codes[i] != cb.Codes[i] {
				return fmt.Errorf("feature %d row %d: code %d vs %d", f, i, ca.Codes[i], cb.Codes[i])
			}
		}
	}
	return nil
}

// TestBinMatrixWorkerInvariant: the feature fan-out yields the same
// matrix at every GOMAXPROCS, each column equal to a lone BinColumn
// call, and pooled scratch that already served a larger column leaves no
// trace in a smaller one.
func TestBinMatrixWorkerInvariant(t *testing.T) {
	x := binMatrixFixture(5, 3000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	want, err := BinMatrix(x, 64)
	if err != nil {
		t.Fatal(err)
	}
	for f := range want.Cols {
		single := &BinnedMatrix{NumSamples: len(x), NumFeatures: 1, MaxBins: 64, Cols: []BinnedColumn{BinColumn(x, f, 64)}}
		part := &BinnedMatrix{NumSamples: len(x), NumFeatures: 1, MaxBins: 64, Cols: want.Cols[f : f+1]}
		if err := sameMatrix(single, part); err != nil {
			t.Fatalf("BinMatrix column %d vs BinColumn: %v", f, err)
		}
	}
	big := binMatrixFixture(6, 20000)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if _, err := BinMatrix(big, 255); err != nil {
			t.Fatal(err)
		}
		got, err := BinMatrix(x, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMatrix(want, got); err != nil {
			t.Fatalf("GOMAXPROCS %d after a larger matrix: %v", procs, err)
		}
	}
}

// TestBinRowLimit: the uint32 row indices cap a column below 2³² rows.
// The guard is checked on the count alone; no such matrix is built.
func TestBinRowLimit(t *testing.T) {
	if err := checkRows(math.MaxUint32); err != nil {
		t.Fatalf("MaxUint32 rows refused: %v", err)
	}
	if math.MaxInt > math.MaxUint32 {
		n := int(uint64(math.MaxUint32) + 1)
		if err := checkRows(n); err == nil {
			t.Fatal("2³² rows accepted")
		}
	}
}

// TestCodeOfAndQuantizeRowNoAlloc: the inference-side lookups stay
// allocation-free.
func TestCodeOfAndQuantizeRowNoAlloc(t *testing.T) {
	x := binMatrixFixture(7, 500)
	bm, err := BinMatrix(x, 32)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint8, bm.NumFeatures)
	var sink uint8
	if a := testing.AllocsPerRun(100, func() { sink += bm.Cols[3].CodeOf(x[7][3]) }); a != 0 {
		t.Fatalf("CodeOf allocated %.0f times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { bm.QuantizeRow(x[9], dst) }); a != 0 {
		t.Fatalf("QuantizeRow allocated %.0f times per call", a)
	}
	_ = sink
}

// BenchmarkBinMatrix bins a 13-feature matrix of distinct rows: the
// BinFeatureMatrix stage of a fleet scan, as a diagnostic.
func BenchmarkBinMatrix(b *testing.B) {
	x := binMatrixFixture(8, 200000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BinMatrix(x, MaxBinsLimit); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/sample")
}
