package detect

// Window is the incremental per-drive detection state shared by the
// online paths: the root Monitor and the serve ingest shards both push
// one valid score per accepted sample and ask whether the paper's
// detection rule tripped. It is the streaming twin of the batch sweeps
// in sweep.go — Push maintains exactly the sliding window voteFeed and
// meanFeed reconstruct over a fully scored series, so a drive observed
// online alarms at the same sample it would in a fleet scan.
//
// The caller owns NaN exclusion (invalid predictions must not be
// pushed) and must use one fixed (n, threshold) pair per window; both
// are parameters rather than fields so the struct stays two words of
// state and serializes trivially (snapshot encode/decode round-trips
// Scores and Votes verbatim).
type Window struct {
	// Scores holds the last ≤ n valid scores, oldest first.
	Scores []float64
	// Votes counts the scores in Scores below the push threshold.
	Votes int
}

// Push appends a valid score and slides the window to the last n
// scores, maintaining Votes incrementally. n must be ≥ 1 and threshold
// fixed across the window's lifetime.
func (w *Window) Push(score float64, n int, threshold float64) {
	w.Scores = append(w.Scores, score)
	if score < threshold {
		w.Votes++
	}
	if len(w.Scores) > n {
		if w.Scores[len(w.Scores)-n-1] < threshold {
			w.Votes--
		}
		w.Scores = w.Scores[len(w.Scores)-n:]
	}
}

// Full reports whether the window holds at least n scores — the
// detection rule never trips on a partial window.
func (w *Window) Full(n int) bool { return len(w.Scores) >= n }

// Mean returns the mean of the windowed scores (NaN when empty). The
// sum runs oldest-first, the same order every observer of the window
// uses, so the value is bit-identical across paths.
func (w *Window) Mean() float64 {
	m := 0.0
	for _, s := range w.Scores {
		m += s
	}
	return m / float64(len(w.Scores))
}

// Tripped reports whether the window trips the detection rule: with
// useMean, the mean of the last n scores falls below threshold (paper
// §V-C); otherwise more than n/2 of the last n scores do (§V-A3).
// Partial windows never trip.
func (w *Window) Tripped(n int, threshold float64, useMean bool) bool {
	if len(w.Scores) < n {
		return false
	}
	if useMean {
		return w.Mean() < threshold
	}
	return 2*w.Votes > n
}

// Reset empties the window, keeping its capacity for reuse (telemetry
// blackouts reset windows without releasing per-drive buffers).
func (w *Window) Reset() {
	w.Scores = w.Scores[:0]
	w.Votes = 0
}
