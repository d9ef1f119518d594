package provision

import (
	"fmt"

	"switchboard/internal/lp"
)

// DefaultBackup solves the paper's §3.2 backup LP: given each DC's peak
// serving capacity, find per-DC backup capacities minimizing the total while
// surviving any single DC failure:
//
//	min  Σ_x Backup_x
//	s.t. Serving_x ≤ Σ_{y≠x} Backup_y   for every DC x
//
// It returns the per-DC backup capacities. Used by the RR and LF baselines,
// which plan backup over and above serving capacity.
func DefaultBackup(serving []float64) ([]float64, error) {
	n := len(serving)
	if n == 0 {
		return nil, nil
	}
	if n == 1 {
		if serving[0] > 0 {
			return nil, fmt.Errorf("provision: cannot back up a single DC")
		}
		return []float64{0}, nil
	}
	p := lp.New(lp.Minimize)
	vars := make([]int, n)
	for x := range vars {
		vars[x] = p.AddVar(fmt.Sprintf("backup[%d]", x), 1)
	}
	for x := 0; x < n; x++ {
		var cols []int
		var vals []float64
		for y := 0; y < n; y++ {
			if y != x {
				cols = append(cols, vars[y])
				vals = append(vals, 1)
			}
		}
		p.AddRow(fmt.Sprintf("fail[%d]", x), cols, vals, lp.GE, serving[x])
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("provision: backup LP %v", sol.Status)
	}
	out := make([]float64, n)
	copy(out, sol.X[:n])
	return out, nil
}

// PeakAwareBackup implements the §4.2 idea in isolation (the Fig 4 worked
// example): given per-DC serving demand over time, find total per-DC
// capacities that cover serving at all times and any single-DC failure at
// any time, repurposing off-peak serving headroom as backup:
//
//	min  Σ_x C_x
//	s.t. C_x ≥ demand_x(t)                            for all x, t
//	     Σ_{y≠f} (C_y − demand_y(t)) ≥ demand_f(t)    for all f, t
//
// demand is indexed [slot][dc]. It returns the per-DC total capacities.
func PeakAwareBackup(demand [][]float64) ([]float64, error) {
	if len(demand) == 0 {
		return nil, fmt.Errorf("provision: empty demand")
	}
	n := len(demand[0])
	if n < 2 {
		return nil, fmt.Errorf("provision: need at least 2 DCs, got %d", n)
	}
	p := lp.New(lp.Minimize)
	vars := make([]int, n)
	for x := range vars {
		vars[x] = p.AddVar(fmt.Sprintf("cap[%d]", x), 1)
	}
	for t, row := range demand {
		if len(row) != n {
			return nil, fmt.Errorf("provision: ragged demand at slot %d", t)
		}
		for x, d := range row {
			if d > 0 {
				p.AddRow(fmt.Sprintf("serve[%d,%d]", t, x), []int{vars[x]}, []float64{1}, lp.GE, d)
			}
		}
		// Failure of DC f at slot t: survivors' headroom covers f.
		var total float64
		for _, d := range row {
			total += d
		}
		for f := 0; f < n; f++ {
			var cols []int
			var vals []float64
			for y := 0; y < n; y++ {
				if y != f {
					cols = append(cols, vars[y])
					vals = append(vals, 1)
				}
			}
			// Σ_{y≠f} C_y ≥ Σ_{y≠f} d_y(t) + d_f(t) = total(t).
			p.AddRow(fmt.Sprintf("fail[%d,%d]", t, f), cols, vals, lp.GE, total)
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("provision: peak-aware backup LP %v", sol.Status)
	}
	out := make([]float64, n)
	copy(out, sol.X[:n])
	return out, nil
}

// backupWAN replays failure scenarios for a baseline plan: for every DC
// failure, the failed DC's calls are redistributed by the redistribute
// callback and link usage recomputed; for every loaded link failure, traffic
// reroutes around the link. It returns the per-link capacity needed: the max
// usage across the no-failure case and all scenarios.
//
// redistribute(t, c, failed, alloc) must return the scenario allocation row
// (shares per DC, with alloc[failed] == 0) for config c at slot t.
func backupWAN(lm *LoadModel, alloc [][][]float64, redistribute func(t, c, failed int, shares []float64) []float64) []float64 {
	nd := len(lm.world.DCs())
	need := PeakPerDC(lm.LinkUsage(alloc, -1))
	baseLoad := append([]float64(nil), need...)

	// Single-DC failures.
	for f := 0; f < nd; f++ {
		failed := newAlloc(len(alloc), len(alloc[0]), nd)
		touched := false
		for t := range alloc {
			for c := range alloc[t] {
				if alloc[t][c][f] > 0 {
					touched = true
					copy(failed[t][c], redistribute(t, c, f, alloc[t][c]))
				} else {
					copy(failed[t][c], alloc[t][c])
				}
			}
		}
		if !touched {
			continue
		}
		for l, v := range PeakPerDC(lm.LinkUsage(failed, -1)) {
			if v > need[l] {
				need[l] = v
			}
		}
	}

	// Single-link failures, only for links carrying traffic in the
	// no-failure case (an unloaded link's failure changes nothing).
	for l, used := range baseLoad {
		if used <= 1e-12 {
			continue
		}
		scenario := PeakPerDC(lm.LinkUsage(alloc, l))
		for l2, v := range scenario {
			if v > need[l2] {
				need[l2] = v
			}
		}
	}
	return need
}
