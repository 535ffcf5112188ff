package detect

import "hddcart/internal/dataset"

// BinnedSeries is a drive's quantized sample sequence: Series with the
// feature vectors replaced by their bin codes, one byte per feature.
type BinnedSeries struct {
	Codes [][]uint8
	Hours []int
	// Dropped carries over the source series' dropped-record count.
	Dropped int
}

// QuantizeSeries maps a drive's series onto bm's code space
// (dataset.BinnedMatrix.Quantize): the rows land in one contiguous
// allocation, Hours and Dropped carry over unchanged. ExtractSeries has
// already excluded non-finite vectors, so quantization never manufactures
// the reserved missing code from corrupt telemetry here — but detectors
// still exclude NaN scores defensively, exactly as the float ones do.
func QuantizeSeries(bm *dataset.BinnedMatrix, s Series) (BinnedSeries, error) {
	codes, err := bm.Quantize(s.X)
	if err != nil {
		return BinnedSeries{}, err
	}
	return BinnedSeries{Codes: codes, Hours: s.Hours, Dropped: s.Dropped}, nil
}

// ScanBinned runs a binned detector over a drive's quantized series.
// failHour is the drive's failure instant, or -1 for good drives.
func ScanBinned(d BinnedDetector, s BinnedSeries, failHour int) Outcome {
	return AlarmOutcome(s.Hours, d.Detect(s.Codes), failHour)
}

// SweepDelegateMin is the fleet size at which ScanBatchBinned hands the
// scan to a registered fleet sweeper (internal/sweep): below it, the
// sharded engine's tiling and scheduling setup outweighs its locality
// wins over the per-drive path.
const SweepDelegateMin = 4096

// fleetSweeper, when registered, may take over a whole ScanBatchBinned
// call. It must return outcomes identical to the per-drive path or
// (nil, false) to decline.
var fleetSweeper func(d BinnedDetector, series []BinnedSeries, failHours []int, workers int) ([]Outcome, bool)

// RegisterFleetSweeper installs the fleet-sweep delegation hook.
// internal/sweep registers itself from an init function, so importing it
// (directly or through the root package) is what turns delegation on;
// the hook must not be swapped while scans are running.
func RegisterFleetSweeper(fn func(d BinnedDetector, series []BinnedSeries, failHours []int, workers int) ([]Outcome, bool)) {
	fleetSweeper = fn
}

// ScanBatchBinned runs a binned detector over many drives' series on up
// to workers goroutines (≤ 1 scans serially), exactly as ScanBatch does
// for float series: outcomes land at each drive's own index, so the
// result is identical for every worker count. The detector must be
// stateless across Detect calls, as VotingBinned and MeanThresholdBinned
// are. At SweepDelegateMin drives and above, a registered fleet sweeper
// (internal/sweep) takes the scan through its tiled sharded engine; the
// sweeper's outcomes are identical to the per-drive path, so delegation
// is invisible apart from speed.
func ScanBatchBinned(d BinnedDetector, series []BinnedSeries, failHours []int, workers int) []Outcome {
	if len(series) >= SweepDelegateMin && fleetSweeper != nil {
		if out, ok := fleetSweeper(d, series, failHours, workers); ok {
			return out
		}
	}
	return ScanBatchBinnedDirect(d, series, failHours, workers)
}

// ScanBatchBinnedDirect is ScanBatchBinned without the fleet-sweep
// delegation: always the per-drive chunked path. It exists so benchmarks
// and equivalence tests can pin the sweep engine against the direct path
// even when a sweeper is registered.
func ScanBatchBinnedDirect(d BinnedDetector, series []BinnedSeries, failHours []int, workers int) []Outcome {
	return scanFleet(len(series), workers, func(i int) Outcome {
		return ScanBinned(d, series[i], failHourAt(failHours, i))
	})
}
