package dataset

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxBinsLimit is the largest usable finite-bin count per feature: bin
// codes are uint8 and one code above the finite bins is reserved for
// NaN/missing values, so at most 255 finite bins plus the reserved bin
// fit the code space.
const MaxBinsLimit = 255

// BinnedColumn is one feature's quantized view: every sample's raw value
// replaced by a small bin code, plus the per-bin value bounds the
// histogram trainer needs to turn a bin boundary back into a split
// threshold.
//
// Finite values (including ±Inf, which order normally) occupy bins
// 0..NumBins-1 in increasing value order; NaN/missing values all carry
// the reserved code NumBins. Bin b covers the closed raw-value interval
// [Lower[b], Upper[b]], intervals are disjoint and increasing, and equal
// raw values always share a bin — a tie can never straddle a boundary.
type BinnedColumn struct {
	// Codes holds one bin code per sample, in sample order. Codes[i] is
	// in [0, NumBins], where NumBins is the reserved missing code.
	Codes []uint8
	// Lower and Upper bound the raw values mapped into each finite bin
	// (Lower[b] = Upper[b] for singleton bins). A zero bound is +0.
	Lower, Upper []float64
	// NumBins is the finite-bin count (≤ the maxBins the column was
	// built with); it doubles as the reserved missing code.
	NumBins int
	// Missing reports whether any sample carried the reserved code.
	Missing bool
	// upper is CodeOf's search table: the sort keys of Upper, padded to
	// 256 entries with a key above every value.
	upper *[256]uint64
}

// MissingCode returns the reserved bin code for NaN/missing values.
func (c *BinnedColumn) MissingCode() uint8 { return uint8(c.NumBins) }

// EdgeBetween returns the split threshold separating finite bins a < b:
// the midpoint of the gap between a's largest and b's smallest raw value,
// computed exactly as the presorted exact path computes the midpoint
// between two consecutive distinct values. Samples with values ≤ Upper[a]
// compare < threshold (they go left); samples ≥ Lower[b] do not.
//
// Infinite bounds need care: the naive midpoint of −Inf and a finite (or
// +Inf) bound is NaN, and a NaN threshold mis-routes at inference (x < NaN
// is false for every x, sending the whole left bin right). When bin a is
// the −Inf bin the threshold is b's lower bound itself (−Inf < t holds,
// v ≥ Lower[b] < t does not); when both bounds are infinite any finite
// value separates and 0 is used. A +Inf right bound needs no special case:
// the midpoint is +Inf, and x < +Inf routes every finite value left.
func (c *BinnedColumn) EdgeBetween(a, b int) float64 {
	u, l := c.Upper[a], c.Lower[b]
	switch {
	case math.IsInf(u, -1) && math.IsInf(l, 1):
		return 0
	case math.IsInf(u, -1):
		return l
	}
	return u + (l-u)/2
}

// BinnedMatrix is the columnar quantized view of a feature matrix:
// one BinnedColumn per feature, all built over the same sample order.
// It is immutable after construction and safe for concurrent readers,
// which is what lets histogram training share one matrix across worker
// goroutines and across every node of a tree.
type BinnedMatrix struct {
	// NumSamples and NumFeatures record the source matrix shape.
	NumSamples, NumFeatures int
	// MaxBins is the finite-bin budget every column was built with.
	MaxBins int
	// Cols holds one quantized column per feature.
	Cols []BinnedColumn
}

// BinMatrix quantizes every column of x to at most maxBins finite bins
// (see BinColumn for the rule). The matrix must be non-empty,
// rectangular and shorter than 2³² rows; maxBins must lie in
// [1, MaxBinsLimit].
//
// Columns are binned on up to GOMAXPROCS goroutines, each claiming the
// next unbinned feature. Every column is a pure function of its own
// values and lands at its own index, so the matrix is identical for any
// worker count.
func BinMatrix(x [][]float64, maxBins int) (*BinnedMatrix, error) {
	if maxBins < 1 || maxBins > MaxBinsLimit {
		return nil, fmt.Errorf("dataset: maxBins %d outside [1,%d]", maxBins, MaxBinsLimit)
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("dataset: empty matrix")
	}
	if err := checkRows(len(x)); err != nil {
		return nil, err
	}
	nf := len(x[0])
	for i := range x {
		if len(x[i]) != nf {
			return nil, fmt.Errorf("dataset: ragged matrix at row %d", i)
		}
	}
	bm := &BinnedMatrix{NumSamples: len(x), NumFeatures: nf, MaxBins: maxBins, Cols: make([]BinnedColumn, nf)}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), nf); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := int(next.Add(1) - 1); f < nf; f = int(next.Add(1) - 1) {
				bm.Cols[f] = BinColumn(x, f, maxBins)
			}
		}()
	}
	wg.Wait()
	return bm, nil
}

// checkRows refuses columns whose row indices do not fit the uint32
// index and digit-count arrays BinColumn sorts with.
func checkRows(n int) error {
	if uint64(n) > math.MaxUint32 {
		return fmt.Errorf("dataset: %d rows exceed the %d-row binning limit", n, uint64(math.MaxUint32))
	}
	return nil
}

// BinColumn quantizes feature f of x into at most maxBins finite bins
// plus the reserved missing bin. The rule is deterministic quantile
// binning: when the column has at most maxBins distinct finite values,
// every distinct value becomes its own singleton bin (so binned split
// search sees exactly the boundaries the exact path sees); otherwise bins
// absorb runs of equal values greedily until each holds roughly an equal
// share of the remaining samples, never splitting a run of ties across
// two bins. The result depends only on the column's multiset of values —
// never on sample order, worker count, or map iteration. −0 and +0 are
// one value, and a zero bin bound is always stored as +0.
//
// The values are sorted as order-preserving integer keys (see sortKey)
// by an LSD radix sort that carries each key's row index, and codes are
// assigned by walking the sorted order, so no value is searched for.
// Scratch buffers come from a pool shared by every caller.
//
// Callers that parallelize across features may invoke BinColumn
// concurrently for different f; it only reads x. It panics on a column
// of 2³² rows or more, which BinMatrix rejects with an error.
func BinColumn(x [][]float64, f, maxBins int) BinnedColumn {
	n := len(x)
	if err := checkRows(n); err != nil {
		panic(err)
	}
	col := BinnedColumn{Codes: make([]uint8, n)}
	s := binPool.Get().(*binScratch)
	defer binPool.Put(s)
	s.grow(n)
	hist := &s.hist
	*hist = [8][256]uint32{}
	// Finite keys (±Inf included: they order normally) fill keys/idx
	// from the front; NaN rows fill idx from the back.
	keys, idx := s.keys[:n], s.idx[:n]
	m, tail := 0, n
	for i := range x {
		k := sortKey(x[i][f])
		if k == nanKey {
			tail--
			idx[tail] = uint32(i)
			continue
		}
		keys[m], idx[m] = k, uint32(i)
		m++
		hist[0][uint8(k)]++
		hist[1][uint8(k>>8)]++
		hist[2][uint8(k>>16)]++
		hist[3][uint8(k>>24)]++
		hist[4][uint8(k>>32)]++
		hist[5][uint8(k>>40)]++
		hist[6][uint8(k>>48)]++
		hist[7][uint8(k>>56)]++
	}
	keys, rows := radixSort(keys[:m], idx[:m], s.keys2[:m], s.idx2[:m], hist)
	vals := s.vals[:m]
	for j, k := range keys {
		vals[j] = keyValue(k)
	}
	col.Lower, col.Upper = binBounds(vals, maxBins)
	col.NumBins = len(col.Upper)
	col.upper = upperKeys(col.Upper)
	// The sorted keys meet the bins in order: each row takes the first
	// bin whose upper key is not below its own.
	var b uint8
	for j, k := range keys {
		for k > col.upper[b] {
			b++
		}
		col.Codes[rows[j]] = b
	}
	if tail < n {
		col.Missing = true
		for _, i := range idx[tail:] {
			col.Codes[i] = uint8(col.NumBins)
		}
	}
	return col
}

// binScratch is BinColumn's working set: the keys and row indices, a
// second pair the radix passes scatter into, the sorted values and the
// digit counts. Buffers only grow, so one scratch serves every column
// size it has met.
type binScratch struct {
	keys, keys2 []uint64
	idx, idx2   []uint32
	vals        []float64
	hist        [8][256]uint32
}

var binPool = sync.Pool{New: func() any { return new(binScratch) }}

func (s *binScratch) grow(n int) {
	if cap(s.keys) >= n {
		return
	}
	s.keys, s.keys2 = make([]uint64, n), make([]uint64, n)
	s.idx, s.idx2 = make([]uint32, n), make([]uint32, n)
	s.vals = make([]float64, n)
}

// radixSort sorts keys ascending and applies the same permutation to
// idx: one stable counting pass per 8-bit digit, least significant
// first, scattering into the spare pair keys2/idx2 and swapping. hist
// holds every digit's counts over the keys (counted by the caller in its
// read pass); it is consumed as the scatter offsets. A digit that every
// key shares leaves the order unchanged and is skipped — for integer-
// valued SMART columns that is most of the mantissa. It returns
// whichever pair holds the sorted result.
func radixSort(keys []uint64, idx []uint32, keys2 []uint64, idx2 []uint32, hist *[8][256]uint32) ([]uint64, []uint32) {
	n := uint32(len(keys))
	for d := 0; d < len(hist) && n > 1; d++ {
		shift := uint(8 * d)
		h := &hist[d]
		if h[uint8(keys[0]>>shift)] == n {
			continue
		}
		var sum uint32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for j, k := range keys {
			b := uint8(k >> shift)
			p := h[b]
			h[b]++
			keys2[p], idx2[p] = k, idx[j]
		}
		keys, keys2 = keys2, keys
		idx, idx2 = idx2, idx
	}
	return keys, idx
}

const (
	signBit = 1 << 63
	// nanKey is every NaN's key: above +Inf's, so the upper-bound search
	// sends NaN past every finite bin to the reserved code.
	nanKey = math.MaxUint64
	// posInfBits is +Inf's bit pattern; a larger magnitude is a NaN.
	posInfBits = 0x7FF0000000000000
)

// sortKey maps a float64 onto a uint64 whose unsigned order is the
// value order: a non-negative value's bits gain the sign bit, a negative
// value's bits are inverted. −0 takes +0's key, so the two zeros are one
// value, and every NaN takes nanKey. The mapping has no data-dependent
// branch.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	k := b ^ (uint64(int64(b)>>63) | signBit)
	// −0's key is signBit−1: z is zero for it alone, and it moves up one.
	z := k ^ (signBit - 1)
	k += 1 ^ (z|-z)>>63
	// A magnitude above +Inf's is a NaN: the subtraction goes negative
	// and the shift spreads its sign into an all-ones mask.
	return k | uint64(int64(posInfBits-b&^signBit)>>63)
}

// keyValue inverts sortKey for a non-NaN key.
func keyValue(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | signBit))
}

// upperKeys builds a column's CodeOf table: the sort keys of the bins'
// upper bounds, padded with nanKey to 256 entries so the top pad entry
// always stops the search at NumBins (NumBins ≤ 255).
func upperKeys(upper []float64) *[256]uint64 {
	t := new([256]uint64)
	for b := range t {
		t[b] = nanKey
	}
	for b, u := range upper {
		t[b] = sortKey(u)
	}
	return t
}

// binBounds derives the per-bin [lower, upper] value bounds from a sorted
// finite-value slice. When the slice holds at most maxBins distinct
// values every distinct value gets a singleton bin — the exactness fast
// path. Otherwise each bin's target share is recomputed as the ceiling of
// remaining-samples over remaining-bins, so early wide runs of ties
// cannot starve the later bins.
func binBounds(vals []float64, maxBins int) (lower, upper []float64) {
	n := len(vals)
	runs := 1
	for i := 1; i < n && runs <= maxBins; i++ {
		if distinct(vals[i-1], vals[i]) {
			runs++
		}
	}
	if runs <= maxBins {
		// Singleton bins: the binned split search sees exactly the
		// distinct-value boundaries the exact path sees.
		for i := 0; i < n; i++ {
			if i == 0 || distinct(vals[i-1], vals[i]) {
				lower = append(lower, vals[i])
				upper = append(upper, vals[i])
			}
		}
		return lower, upper
	}
	i := 0
	for b := 0; i < n && b < maxBins; b++ {
		binsLeft := maxBins - b
		target := ((n - i) + binsLeft - 1) / binsLeft
		lo := vals[i]
		end := i + target
		if binsLeft == 1 || end > n {
			end = n
		}
		// Never split a run of equal values: extend to the end of the
		// run the target landed in.
		for end < n && !distinct(vals[end-1], vals[end]) {
			end++
		}
		lower = append(lower, lo)
		upper = append(upper, vals[end-1])
		i = end
	}
	return lower, upper
}

// distinct reports whether two sorted neighbours are different values —
// the same boundary test the exact split search applies between
// consecutive sorted samples.
//
//hddlint:floatcmp operands are copies of stored feature values from a sorted column, so this tests value identity, not the result of arithmetic
func distinct(a, b float64) bool { return a != b }

// CodeOf quantizes one raw value with the column's binning rule: the
// smallest bin whose upper bound covers v, exactly as BinColumn assigns
// codes at construction. NaN takes the reserved missing code. A finite
// value above the top bin's upper bound also takes the reserved code —
// it routes right at every split, which is exact for any threshold that
// lies at or below the corpus's largest value (every threshold a trained
// tree produces). The column must come from BinColumn.
//
// The lookup counts the column's upper-bound keys below v's sort key
// with a fixed 8-step binary search over the 256-entry table. Each
// step's compare is the borrow of a subtraction, added to the position
// as 0 or the step size, so no branch depends on v. NaN's key lies above
// every bound and lands on the first pad entry, NumBins.
//
//hddlint:noalloc //hddlint:nobc
func (c *BinnedColumn) CodeOf(v float64) uint8 {
	t, k := c.upper, sortKey(v)
	var i uint8
	_, b := bits.Sub64(t[i+127], k, 0)
	i += uint8(b) << 7
	_, b = bits.Sub64(t[i+63], k, 0)
	i += uint8(b) << 6
	_, b = bits.Sub64(t[i+31], k, 0)
	i += uint8(b) << 5
	_, b = bits.Sub64(t[i+15], k, 0)
	i += uint8(b) << 4
	_, b = bits.Sub64(t[i+7], k, 0)
	i += uint8(b) << 3
	_, b = bits.Sub64(t[i+3], k, 0)
	i += uint8(b) << 2
	_, b = bits.Sub64(t[i+1], k, 0)
	i += uint8(b) << 1
	_, b = bits.Sub64(t[i], k, 0)
	return i + uint8(b)
}

// CutFor remaps a split threshold onto the column's code space: the cut
// is the code the threshold itself would quantize to, so a sample routes
// left under the binned comparison code < cut exactly when a
// bin-representative value routes left under v < t. exact reports
// whether the remapping is lossless for every value the column's bins
// can represent: it is false only when t falls strictly inside some
// bin's [Lower, Upper] value range, where corpus values on both sides of
// t share a code and no cut can reproduce the float comparison.
func (c *BinnedColumn) CutFor(t float64) (cut uint8, exact bool) {
	i := c.CodeOf(t)
	return i, int(i) == c.NumBins || t <= c.Lower[i]
}

// QuantizeRow writes x's per-feature bin codes into dst using each
// column's CodeOf rule. Both slices must hold at least NumFeatures
// entries; the codes land at the feature's own index. It is
// allocation-free, so inference paths can reuse one scratch row.
//
//hddlint:noalloc
func (bm *BinnedMatrix) QuantizeRow(x []float64, dst []uint8) {
	for f := range bm.Cols {
		dst[f] = bm.Cols[f].CodeOf(x[f])
	}
}

// Quantize maps whole rows onto the matrix's code space: one uint8 row
// per input row, all backed by a single allocation so a quantized fleet
// block stays contiguous in memory (the working set is NumFeatures bytes
// per sample instead of 8·NumFeatures). Rows must carry at least
// NumFeatures values. The result feeds the binned inference engine
// (cart.CompileBinned and the detect binned scans).
func (bm *BinnedMatrix) Quantize(xs [][]float64) ([][]uint8, error) {
	for i := range xs {
		if len(xs[i]) < bm.NumFeatures {
			return nil, fmt.Errorf("dataset: quantize row %d has %d of %d features",
				i, len(xs[i]), bm.NumFeatures)
		}
	}
	flat := make([]uint8, len(xs)*bm.NumFeatures)
	out := make([][]uint8, len(xs))
	for i, row := range xs {
		dst := flat[i*bm.NumFeatures : (i+1)*bm.NumFeatures : (i+1)*bm.NumFeatures]
		bm.QuantizeRow(row, dst)
		out[i] = dst
	}
	return out, nil
}
