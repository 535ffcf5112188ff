package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"hddcart/internal/cpu"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB. Off
// Linux it falls back to the Go runtime's total obtained memory.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS restarts the peak resident-set count at the current
// resident set, so peakRSSMB afterwards covers only what follows (Linux
// 4.0 and later; elsewhere the peak stays process-wide).
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// memSample is a runtime allocation and GC reading.
type memSample struct {
	alloc   uint64
	gcs     uint32
	pauseNS uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// since returns the allocation and GC deltas from m to now.
func (m memSample) since() memSample {
	n := readMem()
	return memSample{alloc: n.alloc - m.alloc, gcs: n.gcs - m.gcs, pauseNS: n.pauseNS - m.pauseNS}
}

// machineContext describes where a result was measured, so rows at
// workers = 1 and workers = NumCPU can be read against the hardware.
func machineContext() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernels":    cpu.Active().String(),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostLoopMS times a fixed floating-point loop that touches no memory,
// five times, and returns the median in milliseconds. Reported next to a
// run's figures, it shows how fast the host ran the benchmark's threads
// at the time: on shared machines it moves with the neighbours' load.
func hostLoopMS() float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := 0.0
		for k := 0; k < 30_000_000; k++ {
			x += float64(k&7) * 1.0000001
		}
		if x < 0 {
			return 0 // unreachable; keeps the loop from being removed
		}
		ts = append(ts, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ts)
}
