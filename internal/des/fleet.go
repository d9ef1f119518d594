package des

import (
	"fmt"
	"sort"

	"switchboard/internal/geo"
	"switchboard/internal/model"
	"switchboard/internal/provision"
	"switchboard/internal/records"
)

// LinkLoad is one WAN link's bandwidth share of a hosted call.
type LinkLoad struct {
	Link int32
	Gbps float64
}

// Fleet is the simulated datacenter fleet: the geo world's DCs and links,
// a config universe, and — precomputed once so the event loop never touches
// graph algorithms — per-(config, DC) compute load, ACL, link loads, and the
// latency-feasible candidate order. Capacities are set separately so one
// fleet can be swept under many provisioning hypotheses.
type Fleet struct {
	World *geo.World
	// CapCores[x] / CapGbps[l] are the provisioned capacities.
	CapCores []float64
	CapGbps  []float64

	cfgs  []model.CallConfig
	cores []float64      // cores[c]: compute load of one config-c call
	acl   [][]float64    // acl[c][x]: average call latency (ms) hosted at x
	links [][][]LinkLoad // links[c][x]: per-link Gbps of a config-c call at x
	cands [][]int32      // cands[c]: feasible DCs by ascending ACL (Eq 4 + min-ACL fallback)
	order [][]int32      // order[c]: every DC by ascending ACL, the reroute list when all of cands[c] are down
	plan  []int32        // plan[c]: index in the plan's config universe, -1 outside it (nil: not a plan fleet)
}

// newFleet allocates the per-config tables for cfgs over w.
func newFleet(w *geo.World, cfgs []model.CallConfig) (*Fleet, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("des: empty config universe")
	}
	for c, cfg := range cfgs {
		if len(cfg.Spread) == 0 {
			return nil, fmt.Errorf("des: config %d has an empty spread", c)
		}
	}
	return &Fleet{
		World:    w,
		CapCores: make([]float64, len(w.DCs())),
		CapGbps:  make([]float64, len(w.Links())),
		cfgs:     cfgs,
		cores:    make([]float64, len(cfgs)),
		acl:      make([][]float64, len(cfgs)),
		links:    make([][][]LinkLoad, len(cfgs)),
		cands:    make([][]int32, len(cfgs)),
		order:    make([][]int32, len(cfgs)),
	}, nil
}

// NewFleet precomputes the placement tables for the config universe over w.
// latThreshMs is LAT_th (Eq 4): a DC is a candidate for a config when the
// config's ACL there stays under the threshold; a config no DC satisfies
// falls back to its single lowest-ACL DC, like the provisioning LP does.
func NewFleet(w *geo.World, cfgs []model.CallConfig, latThreshMs float64) (*Fleet, error) {
	f, err := newFleet(w, cfgs)
	if err != nil {
		return nil, err
	}
	nDC := f.NumDCs()
	for c, cfg := range cfgs {
		f.cores[c] = cfg.ComputeLoad()
		f.acl[c] = make([]float64, nDC)
		f.links[c] = make([][]LinkLoad, nDC)
		for x := 0; x < nDC; x++ {
			f.acl[c][x] = cfg.ACL(w, x)
			f.links[c][x] = pathLoads(w, cfg, x)
		}
		f.order[c] = byACL(f.acl[c])
		for _, x := range f.order[c] {
			if f.acl[c][x] <= latThreshMs {
				f.cands[c] = append(f.cands[c], x)
			}
		}
		if len(f.cands[c]) == 0 {
			f.cands[c] = f.order[c][:1:1]
		}
	}
	return f, nil
}

// NewPlanFleet builds the fleet a provisioning plan is replayed on; cfgs is
// the replay's config universe (RecordSource.Configs). A config inside lm's
// universe sees what the LP provisioned for: lm's estimator ACL and link
// loads, and lm's Allowed candidates in ACL order. A config outside it
// follows §5.4's unanticipated-config rule: estimator ACL, and every DC as a
// candidate in order of latency from the config's majority country.
func NewPlanFleet(lm *provision.LoadModel, est *records.LatencyEstimator, cfgs []model.CallConfig) (*Fleet, error) {
	w := lm.World()
	f, err := newFleet(w, cfgs)
	if err != nil {
		return nil, err
	}
	planIx := make(map[string]int, len(lm.Demand().Configs))
	for i, cfg := range lm.Demand().Configs {
		planIx[cfg.Key()] = i
	}
	nDC := f.NumDCs()
	f.plan = make([]int32, len(cfgs))
	for c, cfg := range cfgs {
		pc, planned := planIx[cfg.Key()]
		f.plan[c] = -1
		f.cores[c] = cfg.ComputeLoad()
		f.acl[c] = make([]float64, nDC)
		f.links[c] = make([][]LinkLoad, nDC)
		for x := 0; x < nDC; x++ {
			if !planned {
				f.acl[c][x] = est.ACL(cfg, x)
				f.links[c][x] = pathLoads(w, cfg, x)
				continue
			}
			f.acl[c][x] = lm.ACL(pc, x)
			for _, ll := range lm.LinkLoads(pc, x) {
				f.links[c][x] = append(f.links[c][x], LinkLoad{Link: int32(ll.Link), Gbps: ll.Gbps})
			}
		}
		if !planned {
			maj, _ := cfg.Spread.Majority()
			for _, x := range w.DCsByLatency(maj) {
				f.cands[c] = append(f.cands[c], int32(x))
			}
			f.order[c] = f.cands[c]
			continue
		}
		f.plan[c] = int32(pc)
		allowed := make([]bool, nDC)
		for _, x := range lm.Allowed(pc) {
			allowed[x] = true
		}
		f.order[c] = byACL(f.acl[c])
		for _, x := range f.order[c] {
			if allowed[x] {
				f.cands[c] = append(f.cands[c], x)
			}
		}
	}
	return f, nil
}

// byACL returns every DC by ascending ACL, ties by DC index.
func byACL(acl []float64) []int32 {
	dcs := make([]int32, len(acl))
	for x := range dcs {
		dcs[x] = int32(x)
	}
	sort.SliceStable(dcs, func(i, j int) bool { return acl[dcs[i]] < acl[dcs[j]] })
	return dcs
}

// SetCapacity installs the provisioned capacities (copied).
func (f *Fleet) SetCapacity(capCores, capGbps []float64) error {
	if len(capCores) != len(f.CapCores) || len(capGbps) != len(f.CapGbps) {
		return fmt.Errorf("des: capacity vectors sized %d/%d, want %d/%d",
			len(capCores), len(capGbps), len(f.CapCores), len(f.CapGbps))
	}
	copy(f.CapCores, capCores)
	copy(f.CapGbps, capGbps)
	return nil
}

// Configs returns the config universe.
func (f *Fleet) Configs() []model.CallConfig { return f.cfgs }

// NumDCs returns the fleet size.
func (f *Fleet) NumDCs() int { return len(f.CapCores) }

// Cores returns the compute load of one config-c call.
func (f *Fleet) Cores(c int32) float64 { return f.cores[c] }

// ACL returns config c's average call latency hosted at DC x.
func (f *Fleet) ACL(c, x int32) float64 { return f.acl[c][x] }

// Links returns config c's per-link loads when hosted at DC x.
func (f *Fleet) Links(c, x int32) []LinkLoad { return f.links[c][x] }

// Candidates returns config c's latency-feasible DCs by ascending ACL.
func (f *Fleet) Candidates(c int32) []int32 { return f.cands[c] }

// Planned reports whether config c is inside the plan's config universe
// (always false for a fleet not built by NewPlanFleet).
func (f *Fleet) Planned(c int32) bool { return f.plan != nil && f.plan[c] >= 0 }

// DCName returns the datacenter's name (for traces and reports).
func (f *Fleet) DCName(x int32) string { return f.World.DCs()[x].Name }

// pathLoads computes a config's per-link Gbps at a hosting DC, sorted by
// link index (map iteration order must not leak into the tables).
func pathLoads(w *geo.World, cfg model.CallConfig, dc int) []LinkLoad {
	perLink := make(map[int]float64)
	mbps := cfg.Media.NetworkLoad()
	for _, cc := range cfg.Spread {
		for _, l := range w.Path(dc, cc.Country) {
			perLink[l] += mbps * float64(cc.Count) / 1000
		}
	}
	out := make([]LinkLoad, 0, len(perLink))
	for l, g := range perLink {
		out = append(out, LinkLoad{Link: int32(l), Gbps: g})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Link < out[j].Link })
	return out
}
