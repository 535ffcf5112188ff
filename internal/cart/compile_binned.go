package cart

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"hddcart/internal/dataset"
)

// BinnedTree is the binned-code inference form of a CompiledTree: every
// split threshold remapped onto a dataset.BinnedMatrix's uint8 code space
// (dataset.BinnedColumn.CutFor), so scoring runs entirely on quantized
// rows — one byte per feature instead of eight, byte compares in the
// partition kernels, and the reserved missing code routing right at every
// split exactly as NaN does on the float path.
//
// Equivalence contract: for any input whose finite values lie inside
// their bin's [Lower, Upper] value range ("binned data" — every row of
// the matrix the binning was built from qualifies), a BinnedTree with
// Exact set scores bit-identically to its source CompiledTree, verdicts
// and probabilities alike. Trees trained with Params.MaxBins on the same
// matrix score their whole training corpus bit-identically even when
// Exact is false: a threshold only straddles bins no corpus sample
// carries at that node, so the straddled comparison is never evaluated.
// The internal/equiv harness and FuzzBinnedInferenceEquivalence enforce
// both halves.
//
// BinnedTree is immutable after CompileBinned and safe for concurrent
// use.
type BinnedTree struct {
	// Kind records classification vs regression.
	Kind Kind
	// NumFeatures is the expected code-row length (the matrix width).
	NumFeatures int

	// Node arrays, laid out exactly as the source CompiledTree's (root at
	// 0, breadth-first sibling adjacency). Cut replaces Threshold: node i
	// routes a sample left when codes[Feature[i]] < Cut[i].
	Feature []int32
	Left    []int32
	Right   []int32
	Cut     []uint8
	Value   []float64
	PFailed []float64

	// Exact reports whether every split threshold cleanly separated the
	// matrix's bins (dataset.BinnedColumn.CutFor): when set, binned
	// scores match the float path on all bin-representative inputs, not
	// just the training corpus.
	Exact bool

	// nodes is the packed hot-path mirror: one 12-byte record per node.
	// Leaves carry feature −1; internal nodes rely on the sibling
	// adjacency (right child = left+1) the source layout guarantees.
	nodes []binnedNode
	// needLen is 1 + the largest feature index any split reads.
	needLen int
}

// binnedNode is one node of the binned hot traversal path: the step is
// i = left + (0 if codes[feature] < cut else 1), and feature < 0 marks a
// leaf.
type binnedNode struct {
	left    int32
	feature int32
	cut     uint8
}

// CompileBinned remaps the tree's split thresholds onto bm's code space.
// The tree must have the sealed breadth-first layout Compile produces
// (Validate re-seals hand-assembled trees that conform) and must not
// split on features beyond bm's width. Thresholds that fall strictly
// inside a bin's value range cannot be represented by any cut; they
// compile to the conservative "first bin not entirely below the
// threshold routes right" rule and clear Exact.
func (c *CompiledTree) CompileBinned(bm *dataset.BinnedMatrix) (*BinnedTree, error) {
	if bm == nil {
		return nil, errors.New("cart: CompileBinned needs a binned matrix")
	}
	if c.nodes == nil {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("cart: CompileBinned: %w", err)
		}
		if c.nodes == nil {
			return nil, errors.New("cart: CompileBinned requires the sealed breadth-first layout Compile produces")
		}
	}
	if c.needLen > bm.NumFeatures {
		return nil, fmt.Errorf("cart: tree reads feature %d but matrix has %d columns",
			c.needLen-1, bm.NumFeatures)
	}
	n := len(c.Feature)
	bt := &BinnedTree{
		Kind:        c.Kind,
		NumFeatures: bm.NumFeatures,
		Feature:     c.Feature,
		Left:        c.Left,
		Right:       c.Right,
		Cut:         make([]uint8, n),
		Value:       c.Value,
		PFailed:     c.PFailed,
		Exact:       true,
		nodes:       make([]binnedNode, n),
		needLen:     c.needLen,
	}
	for i := 0; i < n; i++ {
		if c.Feature[i] < 0 {
			bt.nodes[i] = binnedNode{feature: -1}
			continue
		}
		t := c.Threshold[i]
		var cut uint8
		if math.IsNaN(t) {
			// x < NaN is false for every value, so the float node routes
			// everything right; cut 0 reproduces that (no code is < 0).
			cut = 0
		} else {
			var exact bool
			cut, exact = bm.Cols[c.Feature[i]].CutFor(t)
			if !exact {
				bt.Exact = false
			}
		}
		bt.Cut[i] = cut
		bt.nodes[i] = binnedNode{left: c.Left[i], feature: c.Feature[i], cut: cut}
	}
	return bt, nil
}

// NumNodes returns the node count.
func (bt *BinnedTree) NumNodes() int { return len(bt.Feature) }

// leaf returns the index of the leaf the code row falls into.
//
//hddlint:binned
func (bt *BinnedTree) leaf(codes []uint8) int {
	nodes := bt.nodes
	i := 0
	for {
		nd := &nodes[i]
		f := nd.feature
		if f < 0 {
			return i
		}
		// Mirrors the float tree's x[f] < threshold branch in code space:
		// the reserved missing code is ≥ every cut, so it descends right
		// exactly as NaN does there.
		if codes[f] < nd.cut {
			i = int(nd.left)
		} else {
			i = int(nd.left) + 1
		}
	}
}

// Predict returns the tree's output for one quantized row.
func (bt *BinnedTree) Predict(codes []uint8) float64 {
	return bt.Value[bt.leaf(codes)]
}

// PredictFailed reports whether the tree labels the row failed.
func (bt *BinnedTree) PredictFailed(codes []uint8) bool { return bt.Predict(codes) < 0 }

// ProbFailed returns the weighted failed-class probability of the row's
// leaf (classification trees; regression trees return NaN, as the float
// paths do).
func (bt *BinnedTree) ProbFailed(codes []uint8) float64 {
	if bt.Kind != Classification {
		return math.NaN()
	}
	return bt.PFailed[bt.leaf(codes)]
}

// scoreBatch fills dst[i] with payload[leaf(xs[i])] (or accumulates it,
// when add is set), bit-identical to a per-row walk — the binned
// analogue of CompiledTree.scoreBatch, sharing its pooled scratch and
// block structure.
//
//hddlint:noalloc
//hddlint:binned
func (bt *BinnedTree) scoreBatch(xs [][]uint8, dst, payload []float64, add bool) {
	if len(xs) < minPartitionBatch {
		if add {
			for i, codes := range xs {
				dst[i] += payload[bt.leaf(codes)]
			}
		} else {
			for i, codes := range xs {
				dst[i] = payload[bt.leaf(codes)]
			}
		}
		return
	}
	for lo := 0; lo < len(xs); lo += partitionBlock {
		hi := min(lo+partitionBlock, len(xs))
		if !bt.scorePartitioned(xs[lo:hi], dst[lo:hi], payload, add) {
			if add {
				for i, codes := range xs[lo:hi] {
					dst[lo+i] += payload[bt.leaf(codes)]
				}
			} else {
				for i, codes := range xs[lo:hi] {
					dst[lo+i] = payload[bt.leaf(codes)]
				}
			}
		}
	}
}

// scorePartitioned is the binned batch engine: the tree-major partitioned
// traversal of CompiledTree.scorePartitioned with the float compares
// replaced by byte compares against the node's cut code. A block's
// working set is NumFeatures bytes per row instead of 8·NumFeatures, so
// far more rows stay cache-resident across tree levels.
//
//hddlint:noalloc
//hddlint:binned
func (bt *BinnedTree) scorePartitioned(xs [][]uint8, dst, payload []float64, add bool) bool {
	n := len(xs)
	if bt.Feature[0] < 0 { // single-leaf tree
		p := payload[0]
		if add {
			for i := range dst {
				dst[i] += p
			}
		} else {
			for i := range dst {
				dst[i] = p
			}
		}
		return true
	}

	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.cur) < n || cap(sc.rows) < n { // the tiled kernels grow cur/next only
		//hddlint:ignore hotalloc cold path: pooled scratch grows to the high-water batch size once, then every Get reuses it
		sc.cur = make([]int32, n)
		//hddlint:ignore hotalloc cold path: pooled scratch grows once
		sc.next = make([]int32, n)
		//hddlint:ignore hotalloc cold path: pooled scratch grows once
		sc.rows = make([]unsafe.Pointer, n)
	}
	if base, stride, ok := flatRows(xs, bt.needLen); ok {
		l := partitionRootBinnedFlat(base, stride, n, unsafe.Pointer(&sc.cur[0]),
			uintptr(bt.Feature[0]), bt.Cut[0])
		bt.runSegmentsFlat(sc, base, stride, dst, payload, l, n, add)
		batchScratchPool.Put(sc)
		return true
	}
	rows := sc.rows[:n]
	rp := unsafe.Pointer(&rows[0])

	l, ok := partitionRootBinned(xs, rows, unsafe.Pointer(&sc.cur[0]), bt.needLen,
		uintptr(bt.Feature[0]), bt.Cut[0])
	if !ok {
		batchScratchPool.Put(sc)
		return false
	}
	bt.runSegments(sc, rp, dst, payload, l, n, add)
	batchScratchPool.Put(sc)
	return true
}

// runSegments drains the partitioned traversal below an already-split
// root, exactly as CompiledTree.runSegments does on float rows.
//
//hddlint:noalloc
//hddlint:binned
func (bt *BinnedTree) runSegments(sc *batchScratch, rp unsafe.Pointer,
	dst, payload []float64, rootLeft, n int, add bool) {
	feat := bt.Feature
	cut := bt.Cut
	left, right := bt.Left, bt.Right
	cur, next := sc.cur[:n], sc.next[:n]
	stack := sc.stack[:0]
	//hddlint:ignore hotalloc append targets pooled scratch that grows to the tree depth once, then stays within capacity
	stack = append(stack,
		segment{node: right[0], lo: int32(rootLeft), hi: int32(n)},
		segment{node: left[0], lo: 0, hi: int32(rootLeft)})
	for len(stack) > 0 {
		sg := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if sg.lo == sg.hi {
			continue
		}
		src, out := cur, next
		if sg.flipped {
			src, out = next, cur
		}
		node := sg.node
		seg := src[sg.lo:sg.hi]
		if feat[node] < 0 { // leaf: deliver the payload to every sample here
			p := payload[node]
			if add {
				for _, idx := range seg {
					dst[idx] += p
				}
			} else {
				for _, idx := range seg {
					dst[idx] = p
				}
			}
			continue
		}
		if ln := left[node]; feat[ln] < 0 && feat[ln+1] < 0 {
			leafPairSegBinned(unsafe.Pointer(&src[sg.lo]), len(seg), rp,
				uintptr(feat[node]), cut[node],
				unsafe.Pointer(&dst[0]), unsafe.Pointer(&payload[ln]), add)
			continue
		}
		if len(seg) < minSegPartition {
			walkSegBinned(bt.nodes, seg, rp, dst, payload, node, add)
			continue
		}
		nl := partitionSegBinned(unsafe.Pointer(&src[sg.lo]), unsafe.Pointer(&out[sg.lo]),
			len(seg), rp, uintptr(feat[node]), cut[node])
		mid := sg.lo + int32(nl)
		//hddlint:ignore hotalloc append targets pooled scratch that grows to the tree depth once, then stays within capacity
		stack = append(stack,
			segment{node: right[node], lo: mid, hi: sg.hi, flipped: !sg.flipped},
			segment{node: left[node], lo: sg.lo, hi: mid, flipped: !sg.flipped})
	}
	sc.stack = stack[:0]
}

// partitionRootBinned splits the implicit sample order 0..n-1 on
// codes[f] < cut, gathering and validating the row pointers in the same
// fused pass — CompiledTree's partitionRoot with a one-byte feature load.
// foff is the byte offset of the split feature within a code row.
//
//go:noinline
//hddlint:noalloc
//hddlint:binned
func partitionRootBinned(xs [][]uint8, rows []unsafe.Pointer, outp unsafe.Pointer,
	need int, foff uintptr, cut uint8) (int, bool) {
	l, m := 0, len(xs)-1
	for k, row := range xs {
		if len(row) < need {
			return 0, false
		}
		p := unsafe.Pointer(&row[0])
		rows[k] = p
		cv := *(*uint8)(unsafe.Add(p, foff))
		off, w := m, 0
		if cv < cut {
			off, w = 0, 1
		}
		*(*int32)(unsafe.Add(outp, uintptr(l+off)*4)) = int32(k)
		l += w
		m--
	}
	return l, true
}

// partitionSegBinned is partitionRootBinned for an interior node: sample
// indices come from srcp and the rows were gathered at the root.
//
//go:noinline
//hddlint:noalloc //hddlint:nobc
//hddlint:binned
func partitionSegBinned(srcp, outp unsafe.Pointer, n int, rp unsafe.Pointer, foff uintptr, cut uint8) int {
	l, m := 0, n-1
	for k := 0; k < n; k++ {
		idx := *(*int32)(unsafe.Add(srcp, uintptr(k)*4))
		cv := *(*uint8)(unsafe.Add(*(*unsafe.Pointer)(unsafe.Add(rp, uintptr(uint32(idx))*8)), foff))
		off, w := m, 0
		if cv < cut {
			off, w = 0, 1
		}
		*(*int32)(unsafe.Add(outp, uintptr(l+off)*4)) = idx
		l += w
		m--
	}
	return l
}

// leafPairSegBinned finishes a segment whose node has two leaf children
// in one compare-and-deliver pass, as leafPairSeg does on float rows.
//
//go:noinline
//hddlint:noalloc //hddlint:nobc
//hddlint:binned
func leafPairSegBinned(srcp unsafe.Pointer, n int, rp unsafe.Pointer, foff uintptr, cut uint8,
	dstp, payp unsafe.Pointer, add bool) {
	if add {
		for k := 0; k < n; k++ {
			idx := *(*int32)(unsafe.Add(srcp, uintptr(k)*4))
			cv := *(*uint8)(unsafe.Add(*(*unsafe.Pointer)(unsafe.Add(rp, uintptr(uint32(idx))*8)), foff))
			off := uintptr(8)
			if cv < cut {
				off = 0
			}
			*(*float64)(unsafe.Add(dstp, uintptr(uint32(idx))*8)) += *(*float64)(unsafe.Add(payp, off))
		}
		return
	}
	for k := 0; k < n; k++ {
		idx := *(*int32)(unsafe.Add(srcp, uintptr(k)*4))
		cv := *(*uint8)(unsafe.Add(*(*unsafe.Pointer)(unsafe.Add(rp, uintptr(uint32(idx))*8)), foff))
		off := uintptr(8)
		if cv < cut {
			off = 0
		}
		*(*float64)(unsafe.Add(dstp, uintptr(uint32(idx))*8)) = *(*float64)(unsafe.Add(payp, off))
	}
}

// walkSegBinned finishes a small segment sample-major down the packed
// subtree, as walkSeg does on float rows. The unchecked byte loads are
// safe because every row was validated against needLen at the root.
//
//hddlint:noalloc
//hddlint:binned
func walkSegBinned(nodes []binnedNode, seg []int32, rp unsafe.Pointer,
	dst, payload []float64, node int32, add bool) {
	for _, idx := range seg {
		row := *(*unsafe.Pointer)(unsafe.Add(rp, uintptr(uint32(idx))*8))
		i := node
		for {
			nd := &nodes[i]
			f := nd.feature
			if f < 0 {
				break
			}
			if *(*uint8)(unsafe.Add(row, uintptr(f))) < nd.cut {
				i = nd.left
			} else {
				i = nd.left + 1
			}
		}
		if add {
			dst[idx] += payload[i]
		} else {
			dst[idx] = payload[i]
		}
	}
}

// PredictBatch scores a block of quantized rows into dst and returns it.
// A nil or short dst is replaced by a fresh slice; passing a len(xs)
// buffer makes the steady-state path allocation-free. dst[i] equals
// Predict(xs[i]) exactly.
//
//hddlint:noalloc
func (bt *BinnedTree) PredictBatch(xs [][]uint8, dst []float64) []float64 {
	//hddlint:ignore hotalloc nil/short-dst convenience path allocates by contract; a len(xs) dst is allocation-free
	dst = sizeBuf(dst, len(xs))
	bt.scoreBatch(xs, dst, bt.Value, false)
	return dst
}

// PredictBatchAdd accumulates Predict(xs[i]) onto dst[i] for every row,
// as CompiledTree.PredictBatchAdd does for ensemble scorers.
//
//hddlint:noalloc
func (bt *BinnedTree) PredictBatchAdd(xs [][]uint8, dst []float64) {
	bt.scoreBatch(xs, dst[:len(xs)], bt.Value, true)
}

// ProbFailedBatch fills dst with per-row failed probabilities (NaN for
// regression trees), matching ProbFailed exactly.
//
//hddlint:noalloc
func (bt *BinnedTree) ProbFailedBatch(xs [][]uint8, dst []float64) []float64 {
	//hddlint:ignore hotalloc nil/short-dst convenience path allocates by contract; a len(xs) dst is allocation-free
	dst = sizeBuf(dst, len(xs))
	if bt.Kind != Classification {
		for i := range dst {
			dst[i] = math.NaN()
		}
		return dst
	}
	bt.scoreBatch(xs, dst, bt.PFailed, false)
	return dst
}

// AccumulateBatchBinned accumulates every tree's Predict(xs[i]) onto
// dst[i], in tree order per row — the binned analogue of
// AccumulateBatch: each block's row pointers are validated and gathered
// once for the whole ensemble, then every tree root-partitions the
// shared identity order.
//
//hddlint:noalloc
func AccumulateBatchBinned(trees []*BinnedTree, xs [][]uint8, dst []float64) {
	if len(trees) == 0 || len(xs) == 0 {
		return
	}
	dst = dst[:len(xs)]
	need := 0
	for _, t := range trees {
		need = max(need, t.needLen)
	}
	if len(xs) < minPartitionBatch {
		for _, t := range trees {
			t.scoreBatch(xs, dst, t.Value, true)
		}
		return
	}
	for lo := 0; lo < len(xs); lo += partitionBlock {
		hi := min(lo+partitionBlock, len(xs))
		if !accumulatePartitionedBinned(trees, xs[lo:hi], dst[lo:hi], need) {
			for _, t := range trees {
				t.scoreBatch(xs[lo:hi], dst[lo:hi], t.Value, true)
			}
		}
	}
}

// accumulatePartitionedBinned runs one cache-resident block of quantized
// rows through every tree, as accumulatePartitioned does on float rows.
//
//hddlint:noalloc
//hddlint:binned
func accumulatePartitionedBinned(trees []*BinnedTree, xs [][]uint8, dst []float64, need int) bool {
	n := len(xs)
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.cur) < n || cap(sc.rows) < n { // the tiled kernels grow cur/next only
		//hddlint:ignore hotalloc cold path: pooled scratch grows to the high-water batch size once, then every Get reuses it
		sc.cur = make([]int32, n)
		//hddlint:ignore hotalloc cold path: pooled scratch grows once
		sc.next = make([]int32, n)
		//hddlint:ignore hotalloc cold path: pooled scratch grows once
		sc.rows = make([]unsafe.Pointer, n)
	}
	if cap(sc.order) < n {
		//hddlint:ignore hotalloc cold path: pooled scratch grows once
		sc.order = make([]int32, n)
		for i := range sc.order {
			sc.order[i] = int32(i)
		}
	}
	op := unsafe.Pointer(&sc.order[0])
	if base, stride, ok := flatRows(xs, need); ok {
		for _, t := range trees {
			if t.Feature[0] < 0 { // single-leaf tree
				p := t.Value[0]
				for i := range dst {
					dst[i] += p
				}
				continue
			}
			l := partitionSegBinnedFlat(op, unsafe.Pointer(&sc.cur[0]), n, base, stride,
				uintptr(t.Feature[0]), t.Cut[0])
			t.runSegmentsFlat(sc, base, stride, dst, t.Value, l, n, true)
		}
		batchScratchPool.Put(sc)
		return true
	}
	rows := sc.rows[:n]
	if !gatherRowsBinned(xs, rows, need) {
		batchScratchPool.Put(sc)
		return false
	}
	rp := unsafe.Pointer(&rows[0])
	for _, t := range trees {
		if t.Feature[0] < 0 { // single-leaf tree
			p := t.Value[0]
			for i := range dst {
				dst[i] += p
			}
			continue
		}
		l := partitionSegBinned(op, unsafe.Pointer(&sc.cur[0]), n, rp,
			uintptr(t.Feature[0]), t.Cut[0])
		t.runSegments(sc, rp, dst, t.Value, l, n, true)
	}
	batchScratchPool.Put(sc)
	return true
}

// gatherRowsBinned validates every code row of a block against the
// ensemble-wide need and records the row data pointers.
//
//go:noinline
//hddlint:noalloc
func gatherRowsBinned(xs [][]uint8, rows []unsafe.Pointer, need int) bool {
	for k, row := range xs {
		if len(row) < need {
			return false
		}
		rows[k] = unsafe.Pointer(&row[0])
	}
	return true
}
