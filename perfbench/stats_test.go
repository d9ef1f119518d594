package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	if got := percentile([]uint32{1000, 2000, 3000}, 50); got != 2000 {
		t.Errorf("percentile over uint32 = %v, want 2000", got)
	}
	if got := nsToUs(2500); got != 2.5 {
		t.Errorf("nsToUs(2500) = %v, want 2.5", got)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1}, {55, 6},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64(nil), 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("median/mean of nothing should be 0")
	}
}

func TestMicrosSorted(t *testing.T) {
	got := micros([]time.Duration{3 * time.Microsecond, 1500 * time.Nanosecond})
	if got[0] != 1.5 || got[1] != 3 {
		t.Errorf("micros = %v, want [1.5 3]", got)
	}
}

func TestSplitHalves(t *testing.T) {
	// Four whole seconds: 10 and 12 completions, then 5 and 5; the partial
	// fifth second is ignored.
	windows := []uint32{10, 12, 5, 5, 9}
	h := splitHalves(windows, 4500*time.Millisecond)
	if h.First != 11 || h.Second != 5 {
		t.Fatalf("halves = %+v, want 11 and 5 ops/s", h)
	}
	if g := h.gap(); math.Abs(g-6.0/11) > 1e-12 {
		t.Errorf("gap = %v, want 6/11", g)
	}
	// Five whole seconds: the middle one belongs to neither half.
	h = splitHalves(windows, 5*time.Second)
	if h.First != 11 || h.Second != 7 {
		t.Errorf("odd second count = %+v, want 11 and 7 ops/s", h)
	}
	if h := splitHalves(windows, 1500*time.Millisecond); h != (halves{}) {
		t.Errorf("one whole second = %+v, want zero halves", h)
	}
}

func TestSplitVariants(t *testing.T) {
	s := time.Second
	// One variant: the first half of its ops against the second.
	h := splitVariants([]time.Duration{s, s, 2 * s, 2 * s}, []int{0, 0, 0, 0})
	if h.First != 1 || h.Second != 0.5 {
		t.Errorf("one variant = %+v, want 1 and 0.5 ops/s", h)
	}
	// Variants of unequal cost in a cycle: equal work on both sides, so a
	// steady run reads equal halves although the later ops are cheaper.
	h = splitVariants([]time.Duration{4 * s, s, 4 * s, s}, []int{0, 1, 0, 1})
	if h.First != h.Second || h.First != 0.4 {
		t.Errorf("steady cycle = %+v, want 0.4 and 0.4 ops/s", h)
	}
	// An odd count drops the middle occurrence; a lone variant adds nothing.
	h = splitVariants([]time.Duration{s, 9 * s, 2 * s, 7 * s}, []int{0, 0, 0, 1})
	if h.First != 1 || h.Second != 0.5 {
		t.Errorf("odd count = %+v, want 1 and 0.5 ops/s", h)
	}
	if h := splitVariants([]time.Duration{s, s}, []int{0, 1}); h != (halves{}) {
		t.Errorf("no repeated variant = %+v, want zero halves", h)
	}
}

func TestCheckStationary(t *testing.T) {
	if err := checkStationary(halves{First: 100, Second: 110}, 0.15); err != nil {
		t.Errorf("10%% gap under a 15%% bound failed: %v", err)
	}
	if err := checkStationary(halves{First: 100, Second: 80}, 0.15); err == nil {
		t.Error("20% drop under a 15% bound passed")
	}
	if err := checkStationary(halves{First: 100, Second: 120}, 0.15); err == nil {
		t.Error("20% rise under a 15% bound passed")
	}
	if err := checkStationary(halves{}, 0.15); err == nil {
		t.Error("an empty first half passed")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {100, 90}, {150, 100 * 140.0 / 150}, {1000, 99}, {1_000_000, 99},
	} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// At least ten samples lie above the chosen rank.
	for _, n := range []int{20, 57, 150, 999} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := percentile(xs, tailPercentile(n))
		if above := n - 1 - int(v); above < 10 {
			t.Errorf("n=%d: %d samples above the tail percentile, want at least 10", n, above)
		}
	}
}

func TestWindowRate(t *testing.T) {
	// Seconds with 10, 10, 2 (a stall) and 10 completions; the partial fifth
	// second is ignored.
	windows := []uint32{10, 10, 2, 10, 7}
	if got := windowRate(windows, 4500*time.Millisecond); got != 10 {
		t.Errorf("windowRate = %v, want 10", got)
	}
	if got := windowRate([]uint32{5}, 500*time.Millisecond); got != 10 {
		t.Errorf("windowRate with no whole second = %v, want the mean rate 10", got)
	}
}
