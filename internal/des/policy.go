package des

import (
	"math"
	"time"

	"switchboard/internal/model"
)

// Usage is the engine's live resource view, exposed to policies. Slices are
// owned by the engine; policies must treat them as read-only.
type Usage struct {
	// Cores[x] / Gbps[l] are the currently consumed resources.
	Cores []float64
	Gbps  []float64
	// CapCores / CapGbps alias the fleet's provisioned capacities.
	CapCores []float64
	CapGbps  []float64
	// Down[x] reports that DC x has failed AND the failure has been
	// detected — the controller's view, not ground truth (between failure
	// and detection the engine still offers the DC, as a real fleet would).
	Down []bool
	// Now is the virtual time of the event being processed.
	Now int64
}

// FitsCompute reports whether one call of the given load fits at DC x.
// Compute is the hard resource: an overflowing placement is counted, while
// WAN is the provisioned peak the plan pays for, so exceeding it is cost.
func (u *Usage) FitsCompute(x int32, cores float64) bool {
	return u.Cores[x]+cores <= u.CapCores[x]+1e-9
}

// FitsAt reports whether one call fits at DC x on compute and on every link
// it loads — the test for a placement that stays inside the plan.
func (u *Usage) FitsAt(x int32, cores float64, links []LinkLoad) bool {
	if !u.FitsCompute(x, cores) {
		return false
	}
	for _, ll := range links {
		if u.Gbps[ll.Link]+ll.Gbps > u.CapGbps[ll.Link]+1e-9 {
			return false
		}
	}
	return true
}

// Headroom returns the free cores at DC x.
func (u *Usage) Headroom(x int32) float64 { return u.CapCores[x] - u.Cores[x] }

// PlacementPolicy chooses the hosting DC for one arriving (or migrating)
// call. cands is the latency-feasible candidate list in ascending-ACL order
// with detected-down DCs already filtered out; it is never empty. rng is the
// policy's private seeded stream — policies must draw randomness only from
// it, never from package globals, or seed stability breaks.
type PlacementPolicy interface {
	Name() string
	Choose(f *Fleet, c int32, cands []int32, u *Usage, rng *Stream) int32
}

// Releaser is an optional PlacementPolicy extension: the engine calls
// Release when a call departs, with the DC and virtual time of its last
// placement, so a quota-keeping policy can tally usage "as new calls arrive
// and old calls end" (§5.4(b)).
type Releaser interface {
	Release(f *Fleet, c, dc int32, placedAt int64)
}

// AdmissionPolicy decides whether an arriving call is admitted at all.
// A nil policy admits everything (conferencing calls are not droppable in
// production; rejection exists so capacity-gated what-if sweeps are possible).
type AdmissionPolicy interface {
	Name() string
	Admit(f *Fleet, c int32, cands []int32, u *Usage) bool
}

// FailoverPolicy models the control plane's failure-detection timing: how
// long after a DC dies its calls are swept onto survivors. Sweeping this
// delay is the "failover timing" axis of the paper's availability story.
type FailoverPolicy interface {
	Name() string
	DetectionDelay(dc int32, rng *Stream) time.Duration
}

// LowestACL hosts each call at the lowest-ACL candidate that still has
// compute headroom, falling back to the lowest-ACL candidate outright — the
// live controller's latency-first rule.
type LowestACL struct{}

// Name implements PlacementPolicy.
func (LowestACL) Name() string { return "lowest-acl" }

// Choose implements PlacementPolicy.
func (LowestACL) Choose(f *Fleet, c int32, cands []int32, u *Usage, _ *Stream) int32 {
	cores := f.cores[c]
	for _, x := range cands {
		if u.FitsCompute(x, cores) {
			return x
		}
	}
	return cands[0]
}

// LeastLoaded hosts each call at the candidate with the most free cores,
// trading latency for load spreading — the classic overflow-minimizing
// baseline the paper's plan-following allocator is measured against.
type LeastLoaded struct{}

// Name implements PlacementPolicy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Choose implements PlacementPolicy.
func (LeastLoaded) Choose(f *Fleet, c int32, cands []int32, u *Usage, _ *Stream) int32 {
	best := cands[0]
	bestHead := u.Headroom(best)
	for _, x := range cands[1:] {
		if h := u.Headroom(x); h > bestHead {
			best, bestHead = x, h
		}
	}
	return best
}

// PowerOfTwo samples two candidates uniformly and keeps the one with more
// free cores (ties and a full loser fall back to the lower-ACL pick). The
// two-choices trick gets most of least-loaded's balance at a fraction of its
// state-freshness requirements, which is why real fleets like it.
type PowerOfTwo struct{}

// Name implements PlacementPolicy.
func (PowerOfTwo) Name() string { return "power-of-two" }

// Choose implements PlacementPolicy.
func (PowerOfTwo) Choose(f *Fleet, c int32, cands []int32, u *Usage, rng *Stream) int32 {
	if len(cands) == 1 {
		return cands[0]
	}
	a := cands[rng.Intn(len(cands))]
	b := cands[rng.Intn(len(cands))]
	if u.Headroom(b) > u.Headroom(a) {
		a, b = b, a
	}
	if u.FitsCompute(a, f.cores[c]) {
		return a
	}
	// Both draws full: fall back to the latency-first scan.
	return LowestACL{}.Choose(f, c, cands, u, rng)
}

// BestFit hosts each call at the candidate with the least headroom that
// still fits (first-fit-decreasing's online cousin), keeping slack
// consolidated — the bin-packing-flavored extreme of the sweep.
type BestFit struct{}

// Name implements PlacementPolicy.
func (BestFit) Name() string { return "best-fit" }

// Choose implements PlacementPolicy.
func (BestFit) Choose(f *Fleet, c int32, cands []int32, u *Usage, _ *Stream) int32 {
	cores := f.cores[c]
	best := int32(-1)
	bestHead := 0.0
	for _, x := range cands {
		h := u.Headroom(x)
		if h < cores {
			continue
		}
		if best < 0 || h < bestHead {
			best, bestHead = x, h
		}
	}
	if best >= 0 {
		return best
	}
	return cands[0]
}

// GreedyLocal hosts each call at the lowest-ACL candidate with both compute
// and link headroom, falling back to the lowest-ACL candidate outright — the
// realtime analogue of locality-first that plan replays are compared with.
type GreedyLocal struct{}

// Name implements PlacementPolicy.
func (GreedyLocal) Name() string { return "greedy-local" }

// Choose implements PlacementPolicy.
func (GreedyLocal) Choose(f *Fleet, c int32, cands []int32, u *Usage, _ *Stream) int32 {
	for _, x := range cands {
		if u.FitsAt(x, f.cores[c], f.links[c][x]) {
			return x
		}
	}
	return cands[0]
}

// PlanQuota follows a daily allocation plan's per-slot quotas (§5.4): a call
// takes the lowest-ACL candidate with quota and headroom left, else
// GreedyLocal's choice, and debits the quota of wherever it lands. A fresh
// plan is issued each day (§5.3), and a departing call returns its quota
// unless a newer day's plan has superseded it. Configs outside the plan
// (see NewPlanFleet) have no quotas.
type PlanQuota struct {
	alloc     [][][]float64 // [plan slot][plan config][dc]
	remaining [][][]float64 // today's quotas left
	day0      time.Time     // anchor of the daily reset
	origin    time.Time     // wall-clock instant of virtual time zero
	day       int           // day of remaining
}

// NewPlanQuota follows alloc ([plan slot][plan config][dc], as
// allocate.Build makes it), with days counted from day0 and virtual time
// zero at origin (RecordSource.Origin).
func NewPlanQuota(alloc [][][]float64, day0, origin time.Time) *PlanQuota {
	p := &PlanQuota{alloc: alloc, day0: day0, origin: origin, day: math.MinInt}
	p.remaining = make([][][]float64, len(alloc))
	for t := range alloc {
		p.remaining[t] = make([][]float64, len(alloc[t]))
		for c := range alloc[t] {
			p.remaining[t][c] = make([]float64, len(alloc[t][c]))
		}
	}
	return p
}

// Name implements PlacementPolicy.
func (p *PlanQuota) Name() string { return "plan" }

// Choose implements PlacementPolicy.
func (p *PlanQuota) Choose(f *Fleet, c int32, cands []int32, u *Usage, _ *Stream) int32 {
	row := p.quotas(f, c, u.Now, true)
	if row == nil {
		return GreedyLocal{}.Choose(f, c, cands, u, nil)
	}
	best := int32(-1)
	for _, x := range cands {
		if row[x] >= 1 && u.FitsAt(x, f.cores[c], f.links[c][x]) {
			best = x
			break
		}
	}
	if best < 0 {
		best = GreedyLocal{}.Choose(f, c, cands, u, nil)
	}
	if row[best] >= 1 {
		row[best]--
	}
	return best
}

// Release implements Releaser.
func (p *PlanQuota) Release(f *Fleet, c, dc int32, placedAt int64) {
	if row := p.quotas(f, c, placedAt, false); row != nil {
		row[dc]++
	}
}

// quotas returns config c's quota row for the plan slot holding virtual time
// at: nil outside the plan, and nil for an earlier day unless reset, in which
// case that day's plan is issued.
func (p *PlanQuota) quotas(f *Fleet, c int32, at int64, reset bool) []float64 {
	if !f.Planned(c) {
		return nil
	}
	t := p.origin.Add(time.Duration(at))
	if day := int(t.Sub(p.day0).Hours() / 24); day != p.day {
		if !reset {
			return nil
		}
		for s := range p.alloc {
			for pc := range p.alloc[s] {
				copy(p.remaining[s][pc], p.alloc[s][pc])
			}
		}
		p.day = day
	}
	nT := len(p.remaining)
	slot := model.SlotOfDay(t) * nT / model.SlotsPerDay
	if slot >= nT {
		slot = nT - 1
	}
	return p.remaining[slot][f.plan[c]]
}

// PlacementByName resolves the built-in placement policies for CLI sweeps.
func PlacementByName(name string) (PlacementPolicy, bool) {
	switch name {
	case "lowest-acl":
		return LowestACL{}, true
	case "least-loaded":
		return LeastLoaded{}, true
	case "power-of-two":
		return PowerOfTwo{}, true
	case "best-fit":
		return BestFit{}, true
	}
	return nil, false
}

// AdmitAll is the production admission policy: every call is hosted, over
// capacity if need be (overflow is counted, not dropped).
type AdmitAll struct{}

// Name implements AdmissionPolicy.
func (AdmitAll) Name() string { return "admit-all" }

// Admit implements AdmissionPolicy.
func (AdmitAll) Admit(*Fleet, int32, []int32, *Usage) bool { return true }

// CapacityGate rejects a call when no candidate has compute headroom for it
// — the what-if admission control the paper's provisioning argues should
// never have to fire.
type CapacityGate struct{}

// Name implements AdmissionPolicy.
func (CapacityGate) Name() string { return "capacity-gate" }

// Admit implements AdmissionPolicy.
func (CapacityGate) Admit(f *Fleet, c int32, cands []int32, u *Usage) bool {
	cores := f.cores[c]
	for _, x := range cands {
		if u.FitsCompute(x, cores) {
			return true
		}
	}
	return false
}

// FixedDetection is the built-in failover-timing policy: a constant delay
// between a DC dying and its calls being swept to survivors.
type FixedDetection struct {
	Delay time.Duration
}

// Name implements FailoverPolicy.
func (FixedDetection) Name() string { return "fixed-detection" }

// DetectionDelay implements FailoverPolicy.
func (d FixedDetection) DetectionDelay(int32, *Stream) time.Duration { return d.Delay }
