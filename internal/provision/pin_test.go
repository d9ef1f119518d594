package provision

import (
	"math"
	"testing"

	"switchboard/internal/geo"
	"switchboard/internal/model"
	"switchboard/internal/records"
	"switchboard/internal/trace"
)

// Bit patterns of the Switchboard plan for a 2000-call day shaped like the
// call-control benchmark's set-up (top 25 configs, stride 8, 120 ms): the
// per-DC cores, the per-link Gbps and the plan's cost. The LP solver may get
// faster; this plan may not move.
var (
	pinnedCores = []uint64{
		0x40248e82e332e7a0, 0x3ff2219d5eb02e92, 0x39a3658557b3a341, 0x3fe32828abc40729,
		0x3fff3f61bed7bf10, 0x0, 0x0, 0x401ac9a9d61e1300, 0x40022c6f9a7a2ace, 0x0, 0x0, 0x0,
	}
	pinnedGbps = []uint64{
		0x3fb391136da6a9b5, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x3f66903b4e03120f, 0x0, 0x3f66903b4e0311b0, 0x0, 0x0, 0x3c72aa42f0deb253, 0x3b92e9ded7fd64de, 0x0,
		0x3fb8e0aea5037165, 0x3f61a772d28c4499, 0x0, 0x3faa762dc77d6e03, 0x3faa16c492338cef, 0x0, 0x3f765ca87d50c1fc, 0x3f765ca87d50c1fc,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x3f47da4d527847c0, 0x0,
		0x0, 0x3f765ca87d50c220, 0x0, 0x0, 0x0, 0x0, 0x3c82e3d79906298e, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x3f765ca87d50c19b, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x3f77a6ba81c5f62c,
		0x0, 0x0,
	}
	pinnedCost uint64 = 0x403a525605db2cc8
)

func bitsOf(v []float64) []uint64 {
	b := make([]uint64, len(v))
	for i, f := range v {
		b[i] = math.Float64bits(f)
	}
	return b
}

func TestSwitchboardPlanPinned(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.Days, cfg.CallsPerDay, cfg.Seed = 1, 2000, 1
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := geo.DefaultWorld()
	db := records.New(cfg.Start, w)
	g.EachCall(func(r *model.CallRecord) bool { db.Add(r); return true })
	plan, err := Switchboard(&Inputs{
		World:              w,
		Latency:            db.Estimator(20),
		Demand:             db.PeakEnvelope(25),
		LatencyThresholdMs: 120,
		SlotStride:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cores, gbps, cost := bitsOf(plan.Cores), bitsOf(plan.LinkGbps), math.Float64bits(plan.Cost(w))
	if !equalBits(cores, pinnedCores) || !equalBits(gbps, pinnedGbps) || cost != pinnedCost {
		t.Errorf("plan moved:\ncores %#v\ngbps  %#v\ncost  %#x", cores, gbps, cost)
	}
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
