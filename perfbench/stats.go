package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples at or
// below it. It returns the zero value for an empty slice.
func percentile[T cmp.Ordered](sorted []T, p float64) T {
	n := len(sorted)
	if n == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentile is the highest percentile, up to 99, that leaves at least
// ten of n samples above it, and 50 when none above the median does.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return min(99, 100*float64(n-10)/float64(n))
}

// nsToUs converts a latency sample in nanoseconds to microseconds.
func nsToUs(ns uint32) float64 { return float64(ns) / 1e3 }

// median returns the middle of xs (the mean of the two middle values for an
// even count) without reordering xs. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// micros converts durations to sorted microsecond samples.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	slices.Sort(out)
	return out
}

// windowRate returns the median, over the whole seconds of a phase, of the
// ops completed in each. windows holds the completions of each second since
// the phase start. A median over seconds keeps a short disturbance of the
// machine (a burst of CPU steal) from moving the rate of a whole run. It
// falls back to the phase's mean rate when no whole second fits.
func windowRate(windows []uint32, elapsed time.Duration) float64 {
	n := min(int(elapsed/time.Second), len(windows))
	if n == 0 {
		if elapsed <= 0 {
			return 0
		}
		var total uint32
		for _, c := range windows {
			total += c
		}
		return float64(total) / elapsed.Seconds()
	}
	counts := make([]float64, n)
	for i, c := range windows[:n] {
		counts[i] = float64(c)
	}
	return median(counts)
}

// halves is a timed phase's throughput split at its midpoint: a steady state
// does the same work per second in both halves.
type halves struct {
	First, Second float64 // ops per second
}

// splitHalves rates the first and the second half of a phase's whole
// seconds (the middle second of an odd count belongs to neither), each
// pooled over its seconds. Unlike windowRate it pools: a median over a
// half's few seconds would swing with the bursts of a stalling store, and
// the guard would trip on them rather than on drift.
func splitHalves(windows []uint32, elapsed time.Duration) halves {
	n := min(int(elapsed/time.Second), len(windows))
	if n < 2 {
		return halves{}
	}
	rate := func(ws []uint32) float64 {
		var total uint32
		for _, c := range ws {
			total += c
		}
		return float64(total) / float64(len(ws))
	}
	return halves{First: rate(windows[:n/2]), Second: rate(windows[n-n/2 : n])}
}

// splitVariants is the counterpart of splitHalves for back-to-back ops too long to cut at a
// point in time, whose inputs cycle through variants of unequal cost: each
// variant's earlier occurrences against as many of its later ones, each side
// rated over its own busy time, so both halves did the same work. A variant
// that ran once adds nothing; with no variant run twice the halves are 0.
func splitVariants(durs []time.Duration, variant []int) halves {
	byVariant := map[int][]time.Duration{}
	for i, d := range durs {
		byVariant[variant[i]] = append(byVariant[variant[i]], d)
	}
	var n int
	var early, late time.Duration
	for _, ds := range byVariant {
		m := len(ds) / 2
		for j := 0; j < m; j++ {
			early += ds[j]
			late += ds[len(ds)-m+j]
		}
		n += m
	}
	if early <= 0 || late <= 0 {
		return halves{}
	}
	return halves{First: float64(n) / early.Seconds(), Second: float64(n) / late.Seconds()}
}

// gap is how far the second half's rate moved from the first's, as a share
// of the first.
func (h halves) gap() float64 {
	if h.First <= 0 {
		return math.Inf(1)
	}
	return math.Abs(h.Second-h.First) / h.First
}

// checkStationary fails a phase whose two halves differ by more than bound
// (the ops_per_s bound in BENCHMARK.json): such a phase measured a drift,
// not a steady state, and its medians mean nothing.
func checkStationary(h halves, bound float64) error {
	if g := h.gap(); g > bound {
		return fmt.Errorf("not stationary: first half %.1f ops/s, second half %.1f ops/s (gap %.1f%% > %.0f%%)",
			h.First, h.Second, 100*g, 100*bound)
	}
	return nil
}
