package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// sample is one completed operation: when it ended (open loop: when it was
// due) and how long it took, both in nanoseconds from the pass's start.
type sample struct {
	at  int64
	lat int64
}

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

// median returns the middle value of xs (mean of the middle two for an
// even count); 0 for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

func medianInt(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return median(fs)
}

// tailQuantile is the quantile a window of n samples supports: 0.99 when
// at least 1000 samples are present, else the highest with ten samples
// beyond it, never below the median.
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n <= 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// windowStat is one window of a pass.
type windowStat struct {
	opsPerS  float64
	p50NS    float64
	tailNS   float64
	cpuPerOp float64 // microseconds
}

// windowStats cuts a pass at the CPU marks (one per window boundary) and
// reduces each window: operations per second, median latency, tail
// latency, CPU per operation. Every window uses the same tail quantile,
// tailQuantile of the emptiest window, returned as q. Samples after the
// last boundary — the partial window a pass ends in — are left out.
func windowStats(samples []sample, marks []cpuMark) (stats []windowStat, q float64) {
	if len(marks) < 2 {
		return nil, 0
	}
	wins := make([][]int64, len(marks)-1)
	for _, s := range samples {
		// The boundaries are few; a linear scan from the end is cheap and
		// most samples are found at once.
		for w := len(wins) - 1; w >= 0; w-- {
			if s.at >= int64(marks[w].at) {
				if s.at < int64(marks[w+1].at) {
					wins[w] = append(wins[w], s.lat)
				}
				break
			}
		}
	}
	fewest := math.MaxInt
	for _, w := range wins {
		fewest = min(fewest, len(w))
	}
	q = tailQuantile(fewest)
	for i, w := range wins {
		if len(w) == 0 {
			continue
		}
		sort.Slice(w, func(a, b int) bool { return w[a] < w[b] })
		n := float64(len(w))
		stats = append(stats, windowStat{
			opsPerS:  n / (marks[i+1].at - marks[i].at).Seconds(),
			p50NS:    float64(percentile(w, 0.5)),
			tailNS:   float64(percentile(w, q)),
			cpuPerOp: float64(marks[i+1].cpu-marks[i].cpu) / float64(time.Microsecond) / n,
		})
	}
	return stats, q
}

// medianOf is the median over windows of one of their figures.
func medianOf(stats []windowStat, pick func(windowStat) float64) float64 {
	xs := make([]float64, len(stats))
	for i, st := range stats {
		xs[i] = pick(st)
	}
	return median(xs)
}

// bestQuarterOf is the mean of one figure over the quarter of the windows
// where it is best: highest when higher is better, else lowest. The box the
// suite runs on is shared, and what its neighbours do only ever slows a
// window down, for seconds to a minute at a time; the least disturbed
// windows say what the code costs, and the median window says what the
// neighbours were doing. Ten seeds spread a third less this way
// (README.md, "Spread over ten seeds").
func bestQuarterOf(stats []windowStat, higher bool, pick func(windowStat) float64) float64 {
	if len(stats) == 0 {
		return 0
	}
	xs := make([]float64, len(stats))
	for i, st := range stats {
		xs[i] = pick(st)
	}
	sort.Float64s(xs)
	if higher {
		slices.Reverse(xs)
	}
	best := xs[:(len(xs)+3)/4]
	var sum float64
	for _, x := range best {
		sum += x
	}
	return sum / float64(len(best))
}
