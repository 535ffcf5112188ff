package detect

import (
	"sync"
	"sync/atomic"
)

// detectChunk is how many samples a detector scores per model call: big
// enough to amortize batch setup, small enough that a drive alarming
// early doesn't pay for scoring its whole series.
const detectChunk = 512

// scoreBuf pools per-series score buffers so detection stays
// allocation-free across drives in steady state.
var scoreBuf = sync.Pool{New: func() any { return new([]float64) }}

// sweepSeries is every single-window detection: it scores xs in pooled
// chunks — through PredictBatch when the model has it, Predict per row
// otherwise — and feeds each chunk to the window sweep (meanFeed when
// mean is set, voteFeed otherwise), so an early alarm stops scoring the
// rest of the series. Valid scores are compacted in place behind the
// chunk being scored, so the window arithmetic runs on valid samples
// only while the alarm index stays in series coordinates.
func sweepSeries[R row](model predictor[R], xs []R, n int, thr float64, mean bool) int {
	bp, batched := model.(batchPredictor[R])
	bufp := scoreBuf.Get().(*[]float64)
	scores := *bufp
	if cap(scores) < len(xs) {
		scores = make([]float64, len(xs))
	}
	scores = scores[:len(xs)]
	idx, m, votes, sum := -1, 0, 0, 0.0
	for lo := 0; lo < len(xs) && idx < 0; lo += detectChunk {
		hi := min(lo+detectChunk, len(xs))
		scoreChunk(model, bp, batched, xs[lo:hi], scores[lo:hi])
		if mean {
			idx, m, sum = meanFeed(scores, thr, n, m, sum, lo, hi)
		} else {
			idx, m, votes = voteFeed(scores, thr, n, m, votes, lo, hi)
		}
	}
	*bufp = scores
	scoreBuf.Put(bufp)
	return idx
}

// minScoreChunk bounds how finely scoreInto splits a block: chunks smaller
// than this cost more in goroutine churn than they save in scoring time.
const minScoreChunk = 256

// scoreInto fills dst[i] with model's score of xs[i], using the batch path
// when the model supports it and splitting the block into contiguous
// chunks across up to workers goroutines. Every sample's score lands at
// its own index, so the result is identical for every worker count.
func scoreInto[R row](model predictor[R], xs []R, dst []float64, workers int) {
	bp, batched := model.(batchPredictor[R])
	if workers <= 1 || len(xs) < 2*minScoreChunk {
		scoreChunk(model, bp, batched, xs, dst)
		return
	}
	chunks := min((len(xs)+minScoreChunk-1)/minScoreChunk, workers)
	size := (len(xs) + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := 0; lo < len(xs); lo += size {
		hi := min(lo+size, len(xs))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scoreChunk(model, bp, batched, xs[lo:hi], dst[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

// scoreChunk scores one contiguous chunk through the batch path when
// available, else sample by sample; with a caller-provided dst it is
// allocation-free either way.
//
//hddlint:noalloc
func scoreChunk[R row](model predictor[R], bp batchPredictor[R], batched bool, xs []R, dst []float64) {
	if batched {
		bp.PredictBatch(xs, dst)
		return
	}
	for i, x := range xs {
		dst[i] = model.Predict(x)
	}
}

// scanStride is how many consecutive drives a fleet-scan worker claims
// per atomic bump. Outcome is 24 bytes, so 8 drives ≥ three full cache
// lines of out: the claim counter is hit once per stride instead of once
// per drive, and two workers never interleave writes within one line
// (the only possibly-shared lines are the stride's edges). Results stay
// index-addressed and therefore identical for every worker count.
const scanStride = 8

// scanFleet is the per-drive fan-out behind ScanBatch and
// ScanBatchBinnedDirect: out[i] = scan(i) for every one of n drives, on
// up to workers goroutines (≤ 1 scans serially) claiming scanStride
// drives at a time. Outcomes land at each drive's own index, so the
// result is identical for every worker count.
func scanFleet(n, workers int, scan func(i int) Outcome) []Outcome {
	out := make([]Outcome, n)
	if workers <= 1 || n < 2 {
		for i := range out {
			out[i] = scan(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := (int(next.Add(1)) - 1) * scanStride
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+scanStride, n); i++ {
					out[i] = scan(i)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// failHourAt is drive i's failure instant: failHours[i], or -1 for every
// drive when failHours is nil.
func failHourAt(failHours []int, i int) int {
	if failHours == nil {
		return -1
	}
	return failHours[i]
}

// ScanBatch runs a detector over many drives' series on up to workers
// goroutines (≤ 1 scans serially). failHours[i] is drive i's failure
// instant, -1 (or a nil slice) for good drives. Outcomes are written at
// each drive's own index, so the result is identical for every worker
// count. The detector is shared across goroutines and must therefore be
// stateless across Detect calls, as Voting and MeanThreshold are.
func ScanBatch(d Detector, series []Series, failHours []int, workers int) []Outcome {
	return scanFleet(len(series), workers, func(i int) Outcome {
		return Scan(d, series[i], failHourAt(failHours, i))
	})
}
