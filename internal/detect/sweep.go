package detect

// The window sweeps shared by every detector and by internal/sweep.
// voteFeed and meanFeed advance over explicit cursor state, one chunk of
// freshly scored samples at a time, so sweepSeries can interleave them
// with scoring and VoteAlarm/MeanAlarm can run them once over a whole
// pre-scored series — both bit-identical by construction. Valid scores
// are compacted in place into scores[:m] as the sweep advances (m never
// catches up with the chunk being scored), so the window arithmetic runs
// on valid samples only while the alarm index stays in series
// coordinates.

// voteFeed sweeps buf[lo:hi] through the voting window — alarm at the
// first index where more than n/2 of the last n valid scores fall below
// thr — starting from cursor m0 and vote count votes0. Returns the alarm
// index (or -1) plus the advanced cursor state.
//
//hddlint:noalloc //hddlint:nobc
func voteFeed(buf []float64, thr float64, n, m0, votes0, lo, hi int) (idx, m, votes int) {
	// The sweep is ~1/5 of fleet-scan time, so the loop keeps its state
	// in locals and returns it only at the exits. Reslicing to hi makes
	// the loop bound the slice length, and the lo clamp proves the read
	// index non-negative; together they kill the checks on every
	// i/j-indexed load. The reslice keeps its own one-per-call check — it is the guard
	// that validates hi against the buffer.
	if lo < 0 {
		lo = 0
	}
	//hddlint:ignore bcecheck the reslice is the per-call hi guard; one check per feed, none per sample
	scores := buf[:hi]
	m, votes = m0, votes0
	// Bulk skip: across a run of ≥ n clean non-fails (s ≥ thr excludes
	// fails and NaN alike), the vote count only decays, so if the window
	// enters the run below alarm level (2·votes ≤ n) no alarm can fire
	// inside it, and the window leaves holding n clean samples: m jumps to
	// the run's end, votes to 0. That replaces the full sweep with one
	// predictable compare per sample on healthy stretches — which dominate
	// a fleet — while fail clusters take the exact per-sample path. The
	// skip needs m == i (no NaN was ever compacted away, so window
	// positions equal series positions); tryBulk stops a short clean gap
	// from being re-scanned once per sample between two fails.
	tryBulk := true
	i := lo
	for i < hi {
		if tryBulk && m == i && 2*votes <= n {
			j := i
			// The i = j hop below makes i and j mutually-recursive φs, which
			// defeats prove's constant-step induction (verified: even a
			// range-over-subslice rewrite keeps the check), so the two loads
			// on this path carry their checks by justified exception.
			//hddlint:ignore bcecheck lo ≤ i ≤ j < hi; the i=j hop is beyond prove's induction
			for j < hi && scores[j] >= thr {
				j++
			}
			if j-i >= n {
				m, votes = j, 0
				i = j
				continue
			}
			tryBulk = false
		}
		//hddlint:ignore bcecheck lo ≤ i < hi; same mutually-recursive induction limit as the bulk scan
		s := scores[i]
		i++
		if s != s {
			continue // invalid prediction: excluded, not counted
		}
		// The compaction cursor trails the read index (m ≤ i < hi always:
		// m advances at most once per sample), an invariant the prove pass
		// cannot see, so the m-indexed stores keep their checks.
		//hddlint:ignore bcecheck m ≤ i < hi is a sweep invariant invisible to the prove pass
		scores[m] = s
		m++
		if s < thr {
			votes++
			tryBulk = true // the blocking fail is behind us now
		}
		//hddlint:ignore bcecheck m-n-1 < m ≤ hi is the same cursor invariant
		if m > n && scores[m-n-1] < thr {
			votes--
		}
		if m >= n && 2*votes > n {
			return i - 1, m, votes
		}
	}
	return -1, m, votes
}

// meanFeed is voteFeed for the health-degree window: alarm at the first
// index where the mean of the last n valid scores drops below thr. The
// rolling sum adds and subtracts the scores in series order, so the mean
// comparison is bit-identical across chunkings.
//
//hddlint:noalloc //hddlint:nobc
func meanFeed(buf []float64, thr float64, n, cnt0 int, sum0 float64, lo, hi int) (idx, cnt int, sum float64) {
	// Resliced to hi (and lo clamped) for the same bounds-check elision
	// as voteFeed.
	if lo < 0 {
		lo = 0
	}
	//hddlint:ignore bcecheck the reslice is the per-call hi guard; one check per feed, none per sample
	scores := buf[:hi]
	cnt, sum = cnt0, sum0
	for i := lo; i < hi; i++ {
		s := scores[i]
		if s != s {
			continue // invalid prediction: excluded, not counted
		}
		// cnt trails i exactly as voteFeed's m does.
		//hddlint:ignore bcecheck cnt ≤ i < hi is a sweep invariant invisible to the prove pass
		scores[cnt] = s
		cnt++
		sum += s
		if cnt > n {
			//hddlint:ignore bcecheck cnt-n-1 < cnt ≤ hi is the same cursor invariant
			sum -= scores[cnt-n-1]
		}
		if cnt >= n && sum/float64(n) < thr {
			return i, cnt, sum
		}
	}
	return -1, cnt, sum
}

// VoteAlarm sweeps one fully scored series through the voting window
// state machine and returns the alarm index in series coordinates (-1 =
// no alarm) plus the number of NaN scores the sweep excluded before
// stopping. It is exactly the voting detector's sweep on a pre-scored
// series — a single feed over the whole slice is bit-identical to the
// detector's chunked feeds — exported so internal/sweep can score whole
// work items through the tiled kernels and still alarm at the same
// indexes. voters < 1 acts as 1, as the detectors do. scores is mutated:
// valid samples are compacted toward the front as the sweep advances.
func VoteAlarm(scores []float64, voters int, threshold float64) (idx, excluded int) {
	if voters < 1 {
		voters = 1
	}
	idx, m, _ := voteFeed(scores, threshold, voters, 0, 0, 0, len(scores))
	swept := len(scores)
	if idx >= 0 {
		swept = idx + 1
	}
	return idx, swept - m
}

// MeanAlarm is VoteAlarm for the health-degree (mean-threshold) sweep:
// alarm at the first index where the mean of the last voters valid
// scores drops below threshold, bit-identical to the mean-threshold
// detector on the same scores. scores is mutated as in
// VoteAlarm.
func MeanAlarm(scores []float64, voters int, threshold float64) (idx, excluded int) {
	if voters < 1 {
		voters = 1
	}
	idx, cnt, _ := meanFeed(scores, threshold, voters, 0, 0, 0, len(scores))
	swept := len(scores)
	if idx >= 0 {
		swept = idx + 1
	}
	return idx, swept - cnt
}

// multiVoteAlarms turns one fully scored series into per-window alarm
// indexes: invalid scores are compacted away (remembering each valid
// score's series index), failed votes become prefix counts, and every
// window size reads the same counts — identical to running the voting
// detector per window size, at one scoring pass.
func multiVoteAlarms(scores []float64, voters []int, threshold float64) []int {
	out := make([]int, len(voters))
	for i := range out {
		out[i] = -1
	}
	orig := make([]int, 0, len(scores))
	valid := scores[:0]
	for i, s := range scores {
		if s != s {
			continue
		}
		valid = append(valid, s)
		orig = append(orig, i)
	}
	// Prefix counts of failed votes: fails[i] = #failed among valid[:i].
	fails := make([]int, len(valid)+1)
	for i, s := range valid {
		fails[i+1] = fails[i]
		if s < threshold {
			fails[i+1]++
		}
	}
	for vi, n := range voters {
		if n < 1 {
			n = 1
		}
		for i := n - 1; i < len(valid); i++ {
			if 2*(fails[i+1]-fails[i+1-n]) > n {
				out[vi] = orig[i]
				break
			}
		}
	}
	return out
}
