package allocate

import (
	"hash/fnv"
	"math"
	"testing"

	"switchboard/internal/geo"
	"switchboard/internal/model"
	"switchboard/internal/provision"
	"switchboard/internal/records"
	"switchboard/internal/trace"
)

// Bit patterns of the allocation plan for the 2000-call day of
// provision.TestSwitchboardPlanPinned (top 25 configs, stride 8, 120 ms),
// built on that day's Switchboard plan: an FNV-64a hash over every Alloc
// cell's bits in slot, config, DC order, and the bits of Overflow and
// MeanACL. A warm start or any other solver change may not move the plan
// unnoticed.
const (
	pinnedAllocHash    uint64 = 0x69a18d9989afa43b
	pinnedOverflowBits uint64 = 0x0
	pinnedMeanACLBits  uint64 = 0x4035155dca4a1bfe
)

func TestAllocationPinned(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.Days, cfg.CallsPerDay, cfg.Seed = 1, 2000, 1
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := geo.DefaultWorld()
	db := records.New(cfg.Start, w)
	g.EachCall(func(r *model.CallRecord) bool { db.Add(r); return true })
	in := &provision.Inputs{
		World:              w,
		Latency:            db.Estimator(20),
		Demand:             db.PeakEnvelope(25),
		LatencyThresholdMs: 120,
		SlotStride:         8,
	}
	plan, err := provision.Switchboard(in)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := provision.NewLoadModel(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(lm, plan.Cores, plan.LinkGbps)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, slot := range res.Alloc {
		for _, row := range slot {
			for _, v := range row {
				b := math.Float64bits(v)
				for i := range buf {
					buf[i] = byte(b >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	}
	hash, overflow, acl := h.Sum64(), math.Float64bits(res.Overflow), math.Float64bits(res.MeanACL)
	if hash != pinnedAllocHash || overflow != pinnedOverflowBits || acl != pinnedMeanACLBits {
		t.Errorf("allocation moved: alloc hash %#x, overflow %#x (%g), mean ACL %#x (%g)",
			hash, overflow, res.Overflow, acl, res.MeanACL)
	}
}
