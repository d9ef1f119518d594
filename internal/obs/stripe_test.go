package obs

import (
	"fmt"
	"sync"
	"testing"
)

// The striping invariant: any interleaving of concurrent writers must leave
// the lazily aggregated totals exactly equal to the sum of what was written —
// stripes shift contention, never counts. These tests are the -race hammer
// for that claim.

func TestStripedCounterExactUnderHammer(t *testing.T) {
	const writers, perWriter = 16, 10000
	c := &Counter{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(2)
				}
			}
		}(w)
	}
	wg.Wait()
	// Each writer: perWriter/2 Incs + perWriter/2 Add(2)s.
	want := uint64(writers * (perWriter/2 + perWriter))
	if got := c.Value(); got != want {
		t.Fatalf("Counter.Value() = %d, want %d", got, want)
	}
}

func TestStripedHistogramExactUnderHammer(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	h := newHistogram(bounds)
	const writers, perWriter = 16, 8000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Integer-valued observations keep the float sum exact.
				h.ObserveExemplar(float64(i%10), uint64(w*perWriter+i+1))
			}
		}(w)
	}
	wg.Wait()

	total := uint64(writers * perWriter)
	if got := h.Count(); got != total {
		t.Fatalf("Count() = %d, want %d", got, total)
	}
	// Sum of 0..9 per 10 observations = 45.
	wantSum := float64(writers * (perWriter / 10) * 45)
	if got := h.Sum(); got != wantSum {
		t.Fatalf("Sum() = %v, want %v", got, wantSum)
	}
	// Bucket exactness: values 0..9 against bounds {1,2,4,8} land as
	// 0,1 -> b0; 2 -> b1; 3,4 -> b2; 5..8 -> b3; 9 -> +Inf.
	per := uint64(writers * perWriter / 10)
	wantBuckets := []uint64{2 * per, per, 2 * per, 4 * per, per}
	var acc uint64
	for i, want := range wantBuckets {
		got := h.BucketCount(i)
		if got != want {
			t.Errorf("BucketCount(%d) = %d, want %d", i, got, want)
		}
		acc += got
	}
	if acc != total {
		t.Errorf("bucket counts sum to %d, want %d", acc, total)
	}
	// Every bucket saw exemplared observations, so every bucket must carry
	// one, and it must name a trace that actually landed there.
	for i := range wantBuckets {
		trace, v, ok := h.Exemplar(i)
		if !ok || trace == 0 {
			t.Errorf("bucket %d: no exemplar", i)
			continue
		}
		j := 0
		for j < len(bounds) && v > bounds[j] {
			j++
		}
		if j != i {
			t.Errorf("bucket %d exemplar value %v belongs in bucket %d", i, v, j)
		}
	}
}

func TestGaugeAddExactUnderHammer(t *testing.T) {
	g := &Gauge{}
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				g.Add(1)
				g.Add(-0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(writers*perWriter)*0.5; got != want {
		t.Fatalf("Gauge.Value() = %v, want %v", got, want)
	}
}

// Concurrent Vec.With on a mix of fresh and interned label sets must neither
// lose children (COW insert races) nor miscount: per-label totals stay exact
// and the lock-free lookup always lands on the same child the insert
// published.
func TestVecCOWExactUnderHammer(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("sb_test_hammer_total", "hammer", "route")
	hv := r.HistogramVec("sb_test_hammer_seconds", "hammer", []float64{1}, "route")
	const writers, perWriter, routes = 16, 4000, 7
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				route := fmt.Sprintf("r%d", (w+i)%routes)
				cv.With(route).Inc()
				hv.With(route).Observe(1)
			}
		}(w)
	}
	wg.Wait()
	var cTotal, hTotal uint64
	for rt := 0; rt < routes; rt++ {
		route := fmt.Sprintf("r%d", rt)
		cTotal += cv.With(route).Value()
		hTotal += hv.With(route).Count()
	}
	if want := uint64(writers * perWriter); cTotal != want || hTotal != want {
		t.Fatalf("vec totals counter=%d hist=%d, want %d each", cTotal, hTotal, want)
	}
}

// Gather must agree exactly with the live accessors — the same lazy lane
// aggregation, one layer up — and scraping concurrently with writers must
// never yield an impossible snapshot (count below a previously seen value).
func TestGatherConsistentWhileHammered(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sb_test_gather_total", "g")
	h := r.Histogram("sb_test_gather_seconds", "g", []float64{1, 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(1.5)
				}
			}
		}()
	}
	var lastCount uint64
	for i := 0; i < 200; i++ {
		for _, fam := range r.Gather() {
			switch fam.Name {
			case "sb_test_gather_seconds":
				p := fam.Points[0]
				if p.Count < lastCount {
					t.Fatalf("histogram count went backwards: %d after %d", p.Count, lastCount)
				}
				lastCount = p.Count
				// Bucket/count skew while writers run is unbounded on a
				// preemptible scheduler (the gatherer can stall between lane
				// reads); exactness is asserted after quiescence below.
			}
		}
	}
	close(stop)
	wg.Wait()
	// Quiescent: Gather and accessors must agree exactly.
	for _, fam := range r.Gather() {
		switch fam.Name {
		case "sb_test_gather_total":
			if got := fam.Points[0].Count; got != c.Value() {
				t.Errorf("gathered counter %d != live %d", got, c.Value())
			}
		case "sb_test_gather_seconds":
			p := fam.Points[0]
			if p.Count != h.Count() {
				t.Errorf("gathered count %d != live %d", p.Count, h.Count())
			}
			if p.Sum != h.Sum() {
				t.Errorf("gathered sum %v != live %v", p.Sum, h.Sum())
			}
			var acc uint64
			for _, b := range p.Buckets {
				acc += b
			}
			if acc != p.Count {
				t.Errorf("quiescent bucket sum %d != count %d", acc, p.Count)
			}
		}
	}
}
