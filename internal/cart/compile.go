package cart

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// CompiledTree is the inference-optimized form of a Tree: the nodes
// flattened breadth-first into parallel struct-of-arrays storage (int32
// feature and child indices, float64 thresholds and leaf payloads) so a
// prediction is an iterative walk over a few contiguous cache lines
// instead of a pointer chase through heap-scattered Node structs, with no
// per-call allocation.
//
// Compilation never changes results: a CompiledTree evaluates exactly the
// comparisons of the source tree (x[feature] < threshold, in the same
// order) and returns the same leaf's Value/PFailed, so Predict, ProbFailed
// and the batch variants are bit-identical to the pointer path for every
// input. The equivalence tests and FuzzCompiledTreeEquivalence enforce
// this.
//
// CompiledTree is immutable after Compile and safe for concurrent use.
type CompiledTree struct {
	// Kind records classification vs regression.
	Kind Kind
	// NumFeatures is the expected feature-vector length.
	NumFeatures int
	// FeatureNames optionally labels features (copied from the source).
	FeatureNames []string

	// Node arrays, root at index 0, children after their parent
	// (breadth-first). Feature[i] is the split feature of node i, or -1
	// for a leaf; Left/Right are node indices (valid only for internal
	// nodes); Threshold, Value and PFailed mirror the Node fields.
	Feature   []int32
	Left      []int32
	Right     []int32
	Threshold []float64
	Value     []float64
	PFailed   []float64

	// nodes is the packed hot-path mirror of the arrays above: one
	// 16-byte record per node, so each traversal step is a single cache
	// line touch instead of four bounds-checked array loads. It requires
	// the breadth-first sibling layout (Right[i] == Left[i]+1); Compile
	// always produces it, and Validate rebuilds it for hand-assembled
	// trees. leaf() falls back to the plain arrays when it is absent.
	nodes []packedNode
	// depth is the maximum number of splits on any root-to-leaf path.
	depth int
	// needLen is 1 + the largest feature index any split reads: a row at
	// least this long can be scored without bounds checks, which the
	// partitioned batch kernel verifies up front for every row.
	needLen int
}

// packedNode is one node of the hot traversal path. The right child is
// implicitly left+1 (breadth-first sibling adjacency). Every step is
// branch-free: i = left + (0 if x[feature] < threshold else 1). Leaves are
// encoded as self-loops — threshold NaN (every comparison is false, so the
// step always "goes right") with left = self−1, landing back on the leaf —
// so the traversal needs no leaf branch at all; a NaN threshold is also
// what marks arrival.
type packedNode struct {
	threshold float64
	feature   int32
	left      int32
}

// seal builds the packed hot-path mirror when the layout supports it
// (Compile output always does): sibling adjacency and no NaN thresholds on
// internal nodes, which would collide with the leaf encoding.
func (c *CompiledTree) seal() {
	for i := range c.Feature {
		if c.Feature[i] >= 0 && (c.Right[i] != c.Left[i]+1 || math.IsNaN(c.Threshold[i])) {
			return // keep the slow path for exotic hand-built layouts
		}
	}
	nodes := make([]packedNode, len(c.Feature))
	depths := make([]int, len(c.Feature))
	c.depth = 0
	c.needLen = 0
	for i := range nodes {
		if c.Feature[i] < 0 {
			nodes[i] = packedNode{threshold: math.NaN(), feature: 0, left: int32(i) - 1}
			continue
		}
		nodes[i] = packedNode{threshold: c.Threshold[i], feature: c.Feature[i], left: c.Left[i]}
		if int(c.Feature[i]) >= c.needLen {
			c.needLen = int(c.Feature[i]) + 1
		}
		// Children come after their parent, so their depth is final by
		// the time the forward pass reaches them.
		d := depths[i] + 1
		depths[c.Left[i]] = d
		depths[c.Right[i]] = d
		if d > c.depth {
			c.depth = d
		}
	}
	c.nodes = nodes
}

// Compile flattens the tree into its inference-optimized form.
func (t *Tree) Compile() *CompiledTree {
	n := t.NumNodes()
	c := &CompiledTree{
		Kind:         t.Kind,
		NumFeatures:  t.NumFeatures,
		FeatureNames: t.FeatureNames,
		Feature:      make([]int32, 0, n),
		Left:         make([]int32, 0, n),
		Right:        make([]int32, 0, n),
		Threshold:    make([]float64, 0, n),
		Value:        make([]float64, 0, n),
		PFailed:      make([]float64, 0, n),
	}
	if t.Root == nil {
		return c
	}
	// Breadth-first layout keeps the heavily-traversed top levels of the
	// tree adjacent in memory.
	queue := make([]*Node, 0, n)
	queue = append(queue, t.Root)
	for at := 0; at < len(queue); at++ {
		nd := queue[at]
		feat := int32(-1)
		if !nd.IsLeaf() {
			feat = int32(nd.Feature)
		}
		c.Feature = append(c.Feature, feat)
		c.Left = append(c.Left, -1)
		c.Right = append(c.Right, -1)
		c.Threshold = append(c.Threshold, nd.Threshold)
		c.Value = append(c.Value, nd.Value)
		c.PFailed = append(c.PFailed, nd.PFailed)
		if !nd.IsLeaf() {
			c.Left[at] = int32(len(queue))
			queue = append(queue, nd.Left)
			c.Right[at] = int32(len(queue))
			queue = append(queue, nd.Right)
		}
	}
	c.seal()
	return c
}

// NumNodes returns the node count.
func (c *CompiledTree) NumNodes() int { return len(c.Feature) }

// leaf returns the index of the leaf x falls into. The packed walk is
// the scalar hot path; bcecheck holds it to the hand-elided contract
// (the PR that introduced the unsafe walk bought ~12% on it), so
// reintroducing a checked node load fails the lint run.
//
//hddlint:nobc
func (c *CompiledTree) leaf(x []float64) int {
	// len > 0 (not just non-nil) so the prove pass can kill the
	// &nodes[0] bounds check.
	if nodes := c.nodes; len(nodes) > 0 {
		base := unsafe.Pointer(&nodes[0])
		i := 0
		for {
			// Indexes come from the sealed layout (seal verified every
			// left/right child is in range), so the node load's bounds check
			// is provably dead and elided by hand.
			nd := (*packedNode)(unsafe.Add(base, uintptr(i)*unsafe.Sizeof(packedNode{})))
			thr := nd.threshold
			if thr != thr { // NaN: the leaf self-loop encoding
				return i
			}
			// Mirrors the pointer tree's x[f] < threshold branch exactly
			// (NaN inputs compare false, so they descend right there and
			// here alike). The feature load's check is load-bearing: x is
			// caller data, and eliding it by hand would turn a short row
			// into an out-of-bounds unsafe read instead of a panic.
			//hddlint:ignore bcecheck x[nd.feature] guards caller-provided rows; eliding it trades a panic for an OOB read
			if x[nd.feature] < thr {
				i = int(nd.left)
			} else {
				i = int(nd.left) + 1
			}
		}
	}
	// Inlining attributes the fallback's checks to this call line; they
	// are deliberate, so the contract exempts the call.
	//hddlint:ignore bcecheck the fallback array walk keeps every check on purpose; it is off the hot path
	return c.leafArrays(x)
}

// leafArrays is the fallback walk for hand-assembled trees without the
// packed mirror. It is off the hot path and carries no bounds-check
// contract: every index here is checked.
func (c *CompiledTree) leafArrays(x []float64) int {
	feat, thr := c.Feature, c.Threshold
	left, right := c.Left, c.Right
	i := 0
	for {
		f := feat[i]
		if f < 0 {
			return i
		}
		if x[f] < thr[i] {
			i = int(left[i])
		} else {
			i = int(right[i])
		}
	}
}

// Predict returns the tree's output for x, bit-identical to the source
// Tree.Predict.
func (c *CompiledTree) Predict(x []float64) float64 {
	return c.Value[c.leaf(x)]
}

// PredictFailed reports whether the tree labels x failed.
func (c *CompiledTree) PredictFailed(x []float64) bool { return c.Predict(x) < 0 }

// ProbFailed returns the weighted failed-class probability of x's leaf
// (classification trees; regression trees return NaN, as Tree.ProbFailed
// does).
func (c *CompiledTree) ProbFailed(x []float64) float64 {
	if c.Kind != Classification {
		return math.NaN()
	}
	return c.PFailed[c.leaf(x)]
}

// minPartitionBatch is the block size below which a partitioned traversal's
// per-node bookkeeping outweighs its per-sample savings and scoreBatch walks
// samples one at a time instead.
const minPartitionBatch = 32

// partitionBlock caps how many samples one partitioned traversal handles.
// Each tree level touches every row in the block, so the block's rows must
// stay cache-resident across levels — blocking bounds the working set
// (~1024 rows of ≤ a few hundred bytes plus index buffers) to L2 instead of
// re-streaming the whole matrix from memory once per level.
const partitionBlock = 1024

// minSegPartition is the segment size below which the partitioned
// traversal stops splitting and walks each sample down the remaining
// subtree instead. The walk's per-level child select is a data-dependent
// branch, so it pays a misprediction about every other level; the
// partition path is branch-free (fused-cursor scalar tail below the
// vector width) and keeps winning down to two-sample segments — only a
// single sample, where partitioning cannot split anything, walks.
// Lowering this from 16 was worth ~10% of single-thread fleet-sweep
// throughput on every kernel tier. Output-invariant: each sample writes
// its own dst row exactly once either way.
const minSegPartition = 2

// batchScratch holds the reusable buffers of a partitioned batch
// traversal; pooled so steady-state batch scoring never allocates.
type batchScratch struct {
	cur, next []int32
	rows      []unsafe.Pointer
	stack     []segment
	// order is the identity permutation 0..n-1, kept so ensemble scoring
	// can root-partition every tree from the same source buffer without
	// re-gathering rows per tree. Lazily sized by accumulatePartitioned.
	order []int32
}

// segment is one pending unit of partitioned traversal: the samples in
// buf[lo:hi] (cur or next, by flipped) have all reached node.
type segment struct {
	node    int32
	lo, hi  int32
	flipped bool
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// scoreBatch fills dst[i] with payload[leaf(xs[i])] (or accumulates it,
// when add is set), bit-identical to a per-sample walk: every sample still
// sees exactly the comparisons x[feature] < threshold along its own
// root-to-leaf path (NaN inputs compare false and descend right, as in the
// pointer tree), and each dst[i] is touched exactly once.
//
//hddlint:noalloc
func (c *CompiledTree) scoreBatch(xs [][]float64, dst, payload []float64, add bool) {
	if c.nodes == nil || len(xs) < minPartitionBatch {
		// Hand-assembled trees without the sealed layout walk the arrays;
		// small batches aren't worth the partition setup either way.
		if add {
			for i, x := range xs {
				dst[i] += payload[c.leaf(x)]
			}
		} else {
			for i, x := range xs {
				dst[i] = payload[c.leaf(x)]
			}
		}
		return
	}
	for lo := 0; lo < len(xs); lo += partitionBlock {
		hi := min(lo+partitionBlock, len(xs))
		if !c.scorePartitioned(xs[lo:hi], dst[lo:hi], payload, add) {
			if add {
				for i, x := range xs[lo:hi] {
					dst[lo+i] += payload[c.leaf(x)]
				}
			} else {
				for i, x := range xs[lo:hi] {
					dst[lo+i] = payload[c.leaf(x)]
				}
			}
		}
	}
}

// scorePartitioned is the batch engine: a tree-major traversal that sweeps
// each node's block of samples in one tight loop. Instead of walking every
// sample root-to-leaf (a dependent node load per step), it partitions the
// sample indices at each split — left-goers packed from the front of the
// output buffer, right-goers from the back — and recurses on the two
// halves, ping-ponging between two index buffers. The split's feature and
// threshold stay in registers across the whole block and there are no node
// loads or branches inside the loop, so throughput is bounded by the
// x[feature] loads rather than by branch mispredictions or pointer-chase
// latency. Total work is proportional to the samples' actual path lengths:
// exactly the comparisons a per-sample walk does, grouped by node rather
// than by sample, so results are bit-identical.
//
// The kernel indexes raw row pointers to keep bounds checks out of the hot
// loop. That is safe because (a) the sealed layout (Compile, or Validate
// on hand-assembled trees) guarantees every child and payload index is in
// range, (b) partition positions stay within each segment by construction,
// and (c) every row is checked against needLen — the largest feature any
// split reads — up front. A batch with a too-short row reports false and
// the caller re-runs it through the per-sample walk, which panics on the
// short row only if a sample actually routes through the big split,
// exactly as the pointer tree would.
//
//hddlint:noalloc
func (c *CompiledTree) scorePartitioned(xs [][]float64, dst, payload []float64, add bool) bool {
	n := len(xs)
	feat, thr := c.Feature, c.Threshold
	if feat[0] < 0 { // single-leaf tree
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
	rows := sc.rows[:n]
	rp := unsafe.Pointer(&rows[0])

	// Root level: gather the row pointers and partition the implicit
	// 0..n-1 index order directly into cur in a single fused pass.
	l, ok := partitionRoot(xs, rows, unsafe.Pointer(&sc.cur[0]), c.needLen,
		uintptr(feat[0])*8, thr[0])
	if !ok {
		batchScratchPool.Put(sc)
		return false
	}
	c.runSegments(sc, rp, dst, payload, l, n, add)
	batchScratchPool.Put(sc)
	return true
}

// runSegments drains the partitioned traversal below an already-split
// root: cur[:rootLeft] holds the left-goers, cur[rootLeft:n] the
// right-goers, and rows (via rp) the validated row pointers. It delivers
// (or accumulates, with add) every sample's leaf payload into dst.
//
//hddlint:noalloc
func (c *CompiledTree) runSegments(sc *batchScratch, rp unsafe.Pointer,
	dst, payload []float64, rootLeft, n int, add bool) {
	feat, thr := c.Feature, c.Threshold
	left, right := c.Left, c.Right
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
			// Both children are leaves: fuse the final split and the leaf
			// delivery into one pass — the comparison picks the child's
			// payload directly, so the segment is never partitioned and the
			// two leaf segments never exist.
			leafPairSeg(unsafe.Pointer(&src[sg.lo]), len(seg), rp,
				uintptr(feat[node])*8, thr[node],
				unsafe.Pointer(&dst[0]), unsafe.Pointer(&payload[ln]), add)
			continue
		}
		if len(seg) < minSegPartition {
			// Tiny segment: partitioning it would spawn a pair of segments
			// per remaining subtree node, and on large trees that per-node
			// bookkeeping swamps the per-sample work. Walk each sample down
			// the subtree instead — the exact same comparisons in the exact
			// same order, just grouped by sample again.
			walkSeg(c.nodes, seg, rp, dst, payload, node, add)
			continue
		}
		nl := partitionSeg(unsafe.Pointer(&src[sg.lo]), unsafe.Pointer(&out[sg.lo]),
			len(seg), rp, uintptr(feat[node])*8, thr[node])
		mid := sg.lo + int32(nl)
		//hddlint:ignore hotalloc append targets pooled scratch that grows to the tree depth once, then stays within capacity
		stack = append(stack,
			segment{node: right[node], lo: mid, hi: sg.hi, flipped: !sg.flipped},
			segment{node: left[node], lo: sg.lo, hi: mid, flipped: !sg.flipped})
	}
	sc.stack = stack[:0]
}

// partitionRoot splits the implicit sample order 0..n-1 on x[f] < t:
// left-goers pack outp from the front, right-goers from the back, and the
// left count is returned. Fused into the same pass, it validates each row
// against need and records its data pointer in rows for the deeper levels;
// a short row aborts with ok=false (partial scratch writes are harmless).
// foff is the byte offset of the split feature within a row.
//
// Both partition kernels are standalone, never-inlined functions: inlined
// into the segment driver their loop counters spill to the stack, roughly
// doubling the per-sample cost.
//
//go:noinline
//hddlint:noalloc
func partitionRoot(xs [][]float64, rows []unsafe.Pointer, outp unsafe.Pointer,
	need int, foff uintptr, t float64) (int, bool) {
	l, m := 0, len(xs)-1
	for k, row := range xs {
		if len(row) < need {
			return 0, false
		}
		p := unsafe.Pointer(&row[0])
		rows[k] = p
		xv := *(*float64)(unsafe.Add(p, foff))
		// off selects the front (left) or back (right) slot; off and w
		// compile to conditional moves, mirroring x[f] < threshold exactly
		// (NaN inputs compare false and go right, as in the pointer tree).
		off, w := m, 0
		if xv < t {
			off, w = 0, 1
		}
		*(*int32)(unsafe.Add(outp, uintptr(l+off)*4)) = int32(k)
		l += w
		m--
	}
	return l, true
}

// partitionSeg is partitionRoot for an interior node: the segment's sample
// indices are read from srcp instead of being implicit, and the rows were
// validated and gathered at the root.
//
//go:noinline
//hddlint:noalloc
func partitionSeg(srcp, outp unsafe.Pointer, n int, rp unsafe.Pointer, foff uintptr, t float64) int {
	l, m := 0, n-1
	for k := 0; k < n; k++ {
		idx := *(*int32)(unsafe.Add(srcp, uintptr(k)*4))
		xv := *(*float64)(unsafe.Add(*(*unsafe.Pointer)(unsafe.Add(rp, uintptr(uint32(idx))*8)), foff))
		off, w := m, 0
		if xv < t {
			off, w = 0, 1
		}
		*(*int32)(unsafe.Add(outp, uintptr(l+off)*4)) = idx
		l += w
		m--
	}
	return l
}

// leafPairSeg finishes a segment whose node has two leaf children: one
// pass compares each sample and delivers the chosen child's payload (payp
// points at the left child's payload; the right sibling's follows it, by
// the sealed sibling adjacency). The child pick is an integer select, so
// the loop stays branch-free like the partition kernels.
//
//go:noinline
//hddlint:noalloc
func leafPairSeg(srcp unsafe.Pointer, n int, rp unsafe.Pointer, foff uintptr, t float64,
	dstp, payp unsafe.Pointer, add bool) {
	if add {
		for k := 0; k < n; k++ {
			idx := *(*int32)(unsafe.Add(srcp, uintptr(k)*4))
			xv := *(*float64)(unsafe.Add(*(*unsafe.Pointer)(unsafe.Add(rp, uintptr(uint32(idx))*8)), foff))
			off := uintptr(8)
			if xv < t {
				off = 0
			}
			*(*float64)(unsafe.Add(dstp, uintptr(uint32(idx))*8)) += *(*float64)(unsafe.Add(payp, off))
		}
		return
	}
	for k := 0; k < n; k++ {
		idx := *(*int32)(unsafe.Add(srcp, uintptr(k)*4))
		xv := *(*float64)(unsafe.Add(*(*unsafe.Pointer)(unsafe.Add(rp, uintptr(uint32(idx))*8)), foff))
		off := uintptr(8)
		if xv < t {
			off = 0
		}
		*(*float64)(unsafe.Add(dstp, uintptr(uint32(idx))*8)) = *(*float64)(unsafe.Add(payp, off))
	}
}

// walkSeg finishes a small segment sample-major: each listed sample walks
// the packed subtree rooted at node to its leaf, whose payload is stored
// into (or, with add, accumulated onto) its dst slot. The unchecked
// feature loads are safe for the same reason the partition kernels' are:
// every row was validated against needLen at the root, and needLen covers
// every feature any split reads.
//
//hddlint:noalloc
func walkSeg(nodes []packedNode, seg []int32, rp unsafe.Pointer,
	dst, payload []float64, node int32, add bool) {
	for _, idx := range seg {
		row := *(*unsafe.Pointer)(unsafe.Add(rp, uintptr(uint32(idx))*8))
		i := node
		for {
			nd := &nodes[i]
			t := nd.threshold
			if t != t { // NaN threshold marks a leaf
				break
			}
			if *(*float64)(unsafe.Add(row, uintptr(nd.feature)*8)) < t {
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

// PredictBatch scores a block of feature vectors into dst and returns it.
// A nil or short dst is replaced by a fresh slice; passing a len(xs)
// buffer makes the steady-state path allocation-free. dst[i] equals
// Predict(xs[i]) exactly.
//
//hddlint:noalloc
func (c *CompiledTree) PredictBatch(xs [][]float64, dst []float64) []float64 {
	//hddlint:ignore hotalloc nil/short-dst convenience path allocates by contract; a len(xs) dst is allocation-free
	dst = sizeBuf(dst, len(xs))
	c.scoreBatch(xs, dst, c.Value, false)
	return dst
}

// PredictBatchAdd accumulates Predict(xs[i]) onto dst[i] for every sample.
// dst must already hold len(xs) partial sums. Ensemble scorers use it to
// fold per-tree contributions directly in the leaf-delivery pass instead
// of materializing a per-tree score slice and adding it separately; each
// dst[i] receives exactly one += per call, so calling it once per tree in
// ensemble order reproduces the pointer ensemble's sample-major sum to the
// last bit.
//
//hddlint:noalloc
func (c *CompiledTree) PredictBatchAdd(xs [][]float64, dst []float64) {
	c.scoreBatch(xs, dst[:len(xs)], c.Value, true)
}

// AccumulateBatch accumulates every tree's Predict(xs[i]) onto dst[i], in
// tree order per sample — the shared inner loop of ensemble batch scoring.
// dst must already hold len(xs) partial sums. Compared with calling
// PredictBatchAdd per tree it validates and gathers each block's row
// pointers once for the whole ensemble instead of once per tree. The
// accumulation order per sample is identical, so results still match the
// pointer ensemble bit for bit.
//
//hddlint:noalloc
func AccumulateBatch(trees []*CompiledTree, xs [][]float64, dst []float64) {
	if len(trees) == 0 || len(xs) == 0 {
		return
	}
	dst = dst[:len(xs)]
	need := 0
	shared := len(xs) >= minPartitionBatch
	for _, t := range trees {
		if t.nodes == nil {
			shared = false
			break
		}
		need = max(need, t.needLen)
	}
	if !shared {
		for _, t := range trees {
			t.scoreBatch(xs, dst, t.Value, true)
		}
		return
	}
	for lo := 0; lo < len(xs); lo += partitionBlock {
		hi := min(lo+partitionBlock, len(xs))
		if !accumulatePartitioned(trees, xs[lo:hi], dst[lo:hi], need) {
			for _, t := range trees {
				t.scoreBatch(xs[lo:hi], dst[lo:hi], t.Value, true)
			}
		}
	}
}

// accumulatePartitioned runs one cache-resident block through every tree:
// rows are validated and gathered once, then each tree root-partitions the
// shared identity order and drains its segments, folding leaf values onto
// dst inside the delivery pass.
//
//hddlint:noalloc
func accumulatePartitioned(trees []*CompiledTree, xs [][]float64, dst []float64, need int) bool {
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
	rows := sc.rows[:n]
	if !gatherRows(xs, rows, need) {
		batchScratchPool.Put(sc)
		return false
	}
	rp := unsafe.Pointer(&rows[0])
	op := unsafe.Pointer(&sc.order[0])
	for _, t := range trees {
		if t.Feature[0] < 0 { // single-leaf tree
			p := t.Value[0]
			for i := range dst {
				dst[i] += p
			}
			continue
		}
		l := partitionSeg(op, unsafe.Pointer(&sc.cur[0]), n, rp,
			uintptr(t.Feature[0])*8, t.Threshold[0])
		t.runSegments(sc, rp, dst, t.Value, l, n, true)
	}
	batchScratchPool.Put(sc)
	return true
}

// gatherRows validates every row of a block against the ensemble-wide
// need (1 + the largest feature index any tree reads) and records the row
// data pointers; a short row aborts with false.
//
//go:noinline
//hddlint:noalloc
func gatherRows(xs [][]float64, rows []unsafe.Pointer, need int) bool {
	for k, row := range xs {
		if len(row) < need {
			return false
		}
		rows[k] = unsafe.Pointer(&row[0])
	}
	return true
}

// ProbFailedBatch fills dst with per-sample failed probabilities (NaN for
// regression trees), matching ProbFailed exactly.
//
//hddlint:noalloc
func (c *CompiledTree) ProbFailedBatch(xs [][]float64, dst []float64) []float64 {
	//hddlint:ignore hotalloc nil/short-dst convenience path allocates by contract; a len(xs) dst is allocation-free
	dst = sizeBuf(dst, len(xs))
	if c.Kind != Classification {
		for i := range dst {
			dst[i] = math.NaN()
		}
		return dst
	}
	c.scoreBatch(xs, dst, c.PFailed, false)
	return dst
}

// sizeBuf returns dst truncated/grown to length n, reusing its storage
// when capacity allows.
func sizeBuf(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// Validate checks the structural invariants a CompiledTree needs for safe
// traversal (children in range and after their parent, feature indices
// within NumFeatures). Compile always produces a valid tree; Validate
// guards trees assembled by hand or decoded from external data.
func (c *CompiledTree) Validate() error {
	n := len(c.Feature)
	if len(c.Left) != n || len(c.Right) != n || len(c.Threshold) != n ||
		len(c.Value) != n || len(c.PFailed) != n {
		return errors.New("cart: compiled tree has ragged node arrays")
	}
	if n == 0 {
		return errors.New("cart: compiled tree has no nodes")
	}
	for i := 0; i < n; i++ {
		if c.Feature[i] < 0 {
			continue // leaf
		}
		if int(c.Feature[i]) >= c.NumFeatures {
			return fmt.Errorf("cart: compiled node %d splits on feature %d of %d",
				i, c.Feature[i], c.NumFeatures)
		}
		for _, child := range [2]int32{c.Left[i], c.Right[i]} {
			if child <= int32(i) || child >= int32(n) {
				return fmt.Errorf("cart: compiled node %d has bad child index %d", i, child)
			}
		}
	}
	if c.nodes == nil {
		c.seal()
	}
	return nil
}
