package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the middle two for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest of p50/p90/p99/p999 that still has at least
// ten of n samples beyond it, the rule the metrics guide sets for reporting
// a timing's tail.
func tailQuantile(n int) float64 {
	for _, q := range []struct{ beyondPerMille, q float64 }{{1, 0.999}, {10, 0.99}, {100, 0.9}} {
		if float64(n)*q.beyondPerMille >= 10*1000 {
			return q.q
		}
	}
	return 0.5
}

// sortedQuantile reads the q-quantile (nearest rank) from an ascending
// slice of latencies.
func sortedQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quietLow and quietHigh summarize the repeated measurements of one run
// (windows, passes, bring-ups) by the quartile on the quiet side: the low
// one where lower is better, the high one where higher is. The sandbox is
// shared, and a neighbour only ever makes a window slower; for seconds at a
// time it makes most of them slower, and the median of a run then says more
// about the neighbour than about the code. The quiet quartile still has a
// quarter of the samples beyond it, so one lucky window does not set it,
// and a real regression moves it as it moves every quantile.
func quietLow(xs []float64) float64  { return quantile(xs, 0.25) }
func quietHigh(xs []float64) float64 { return quantile(xs, 0.75) }

// column picks v of every x that keep accepts: one measurement across a
// run's passes or bring-ups.
func column[T any](xs []T, keep func(T) bool, v func(T) float64) []float64 {
	var out []float64
	for _, x := range xs {
		if keep(x) {
			out = append(out, v(x))
		}
	}
	return out
}

// windowQuantile returns the q-quantile of each window's latency samples.
// Empty windows are skipped: a window with no deliveries has no latency,
// and the backlog check is what catches a stalled system.
func windowQuantile(windows [][]int64, q float64) []float64 {
	var out []float64
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		s := append([]int64(nil), w...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out = append(out, float64(sortedQuantile(s, q)))
	}
	return out
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
