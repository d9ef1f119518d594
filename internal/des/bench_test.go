package des

import (
	"testing"
	"time"

	"switchboard/internal/geo"
)

// benchRig builds a fixed 100k-call scenario outside the timed region.
func benchRig(b testing.TB, calls int) Config {
	b.Helper()
	w := geo.DefaultWorld()
	src, err := NewSynthSource(w, SynthConfig{Seed: 5, Calls: calls})
	if err != nil {
		b.Fatal(err)
	}
	f, err := NewFleet(w, src.Configs(), 120)
	if err != nil {
		b.Fatal(err)
	}
	cores, gbps := src.ExpectedPeakLoad(f)
	for i := range cores {
		cores[i] *= 1.25
	}
	if err := f.SetCapacity(cores, gbps); err != nil {
		b.Fatal(err)
	}
	return Config{Fleet: f, Source: src, Placement: LowestACL{}, Seed: 5}
}

// BenchmarkEngine100k measures the full engine loop over a 100k-call day,
// which is 200k events, source draws included; it reports the cost per
// event as ns/event. A day's time splits between the departure queue, the
// workload source (BenchmarkSynthSource200k isolates it) and placement.
// cmd/sbbench times a 200k-call day, 400k events, for its events/s point.
func BenchmarkEngine100k(b *testing.B) {
	const calls = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := benchRig(b, calls)
		b.StartTimer()
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Placed != calls || res.DroppedEvents != 0 {
			b.Fatalf("bad books: %+v", res)
		}
	}
	b.ReportMetric(float64(2*calls), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*calls), "ns/event")
}

// BenchmarkSynthSource200k measures the workload source alone over a
// 200k-call day, the size of a sim_des day, so the source's share of a day
// has its own point; it reports the cost per arrival as ns/call.
func BenchmarkSynthSource200k(b *testing.B) {
	const calls = 200_000
	w := geo.DefaultWorld()
	b.ReportAllocs()
	var a Arrival
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src, err := NewSynthSource(w, SynthConfig{Seed: 5, Calls: calls})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n := 0
		for src.Next(&a) {
			n++
		}
		if n != calls {
			b.Fatalf("source yielded %d calls, want %d", n, calls)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/calls, "ns/call")
}

// TestEngineAllocsBounded runs BenchmarkEngine100k's rig, with its busiest DC
// failing for two hours, and bounds the run's allocations: the engine's
// fixed per-run slices plus a call-pool slab per 256 concurrent calls, never
// an allocation per call or per event.
func TestEngineAllocsBounded(t *testing.T) {
	const calls, runs = 100_000, 2
	cfg := benchRig(t, calls)
	busiest := int32(0)
	for x := 1; x < cfg.Fleet.NumDCs(); x++ {
		if cfg.Fleet.CapCores[x] > cfg.Fleet.CapCores[busiest] {
			busiest = int32(x)
		}
	}
	cfg.Failures = []DCFailure{{DC: busiest, At: 13 * time.Hour, Recover: 15 * time.Hour}}
	// AllocsPerRun runs once more to warm up; each run needs a fresh source.
	var srcs []Source
	for i := 0; i <= runs; i++ {
		srcs = append(srcs, benchRig(t, calls).Source)
	}
	var res Result
	allocs := testing.AllocsPerRun(runs, func() {
		cfg.Source, srcs = srcs[0], srcs[1:]
		var err error
		if res, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if res.Placed != calls || res.Migrated == 0 || res.DroppedEvents != 0 {
		t.Fatalf("bad books: %+v", res)
	}
	if allocs > 32 {
		t.Fatalf("Run allocated %v times, want at most 32", allocs)
	}
}
