// Package allocate implements the offline stage of MP server allocation
// (§5.3, "Allocation plan"): once a day, for every time slot and call config,
// decide what fraction of calls to place at each DC so that the mean average
// call latency is minimized within the already-provisioned compute and
// network capacities (the paper's Eq 10 secondary objective).
//
// Because capacities are fixed, slots decouple: the plan solves one small LP
// per slot instead of the provisioning LP's coupled formulation, which keeps
// the daily job cheap. Per-config overflow variables (heavily penalized)
// guarantee feasibility even if demand exceeds the plan's capacity — the
// realtime selector treats overflow as "host at the min-ACL DC and flag it".
package allocate

import (
	"fmt"

	"switchboard/internal/lp"
	"switchboard/internal/provision"
)

// overflowPenaltyMs prices a call that cannot fit into provisioned capacity;
// it only needs to dominate any realistic ACL.
const overflowPenaltyMs = 1e5

// Result is a daily allocation plan.
type Result struct {
	// Alloc[t][c][x] is the number of calls of config c in slot t the
	// plan hosts at DC x.
	Alloc [][][]float64
	// Overflow is the total number of calls (across slots and configs)
	// that did not fit into provisioned capacity.
	Overflow float64
	// MeanACL is the demand-weighted mean ACL of the plan, excluding
	// overflow.
	MeanACL float64
}

// Build computes the allocation plan for the given provisioned capacities.
// cores and linkGbps must be indexed like the world's DCs and links.
func Build(lm *provision.LoadModel, cores, linkGbps []float64) (*Result, error) {
	w := lm.World()
	if len(cores) != len(w.DCs()) {
		return nil, fmt.Errorf("allocate: %d core capacities for %d DCs", len(cores), len(w.DCs()))
	}
	if len(linkGbps) != len(w.Links()) {
		return nil, fmt.Errorf("allocate: %d link capacities for %d links", len(linkGbps), len(w.Links()))
	}
	d := lm.Demand()
	nT, nC, nD := len(d.Counts), len(d.Configs), len(w.DCs())
	res := &Result{Alloc: make([][][]float64, nT)}
	var aclSum, calls float64
	for t := 0; t < nT; t++ {
		alloc, overflow, err := solveSlot(lm, t, cores, linkGbps)
		if err != nil {
			return nil, fmt.Errorf("allocate: slot %d: %w", t, err)
		}
		res.Alloc[t] = alloc
		res.Overflow += overflow
		for c := 0; c < nC; c++ {
			for x := 0; x < nD; x++ {
				if s := alloc[c][x]; s > 0 {
					aclSum += s * lm.ACL(c, x)
					calls += s
				}
			}
		}
	}
	if calls > 0 {
		res.MeanACL = aclSum / calls
	}
	return res, nil
}

// solveSlot solves the per-slot latency-minimization LP.
func solveSlot(lm *provision.LoadModel, t int, cores, linkGbps []float64) ([][]float64, float64, error) {
	w := lm.World()
	d := lm.Demand()
	nC, nD, nL := len(d.Configs), len(w.DCs()), len(w.Links())

	p := lp.New(lp.Minimize)
	type sRef struct{ col, c, x int }
	var refs []sRef
	var overflowVars []int

	computeCols := make([][]int, nD)
	computeVals := make([][]float64, nD)
	netCols := make([][]int, nL)
	netVals := make([][]float64, nL)

	anyDemand := false
	for c := 0; c < nC; c++ {
		dem := d.Counts[t][c]
		if dem <= 0 {
			continue
		}
		anyDemand = true
		var rowCols []int
		var rowVals []float64
		for _, x := range lm.Allowed(c) {
			v := p.AddVar(fmt.Sprintf("S[%d,%d]", c, x), lm.ACL(c, x))
			refs = append(refs, sRef{v, c, x})
			rowCols = append(rowCols, v)
			rowVals = append(rowVals, 1)
			computeCols[x] = append(computeCols[x], v)
			computeVals[x] = append(computeVals[x], lm.ComputeLoad(c))
			for _, ll := range lm.LinkLoads(c, x) {
				netCols[ll.Link] = append(netCols[ll.Link], v)
				netVals[ll.Link] = append(netVals[ll.Link], ll.Gbps)
			}
		}
		ov := p.AddVar(fmt.Sprintf("overflow[%d]", c), overflowPenaltyMs)
		overflowVars = append(overflowVars, ov)
		rowCols = append(rowCols, ov)
		rowVals = append(rowVals, 1)
		p.AddRow(fmt.Sprintf("demand[%d]", c), rowCols, rowVals, lp.EQ, dem)
	}
	if !anyDemand {
		alloc := make([][]float64, nC)
		for c := range alloc {
			alloc[c] = make([]float64, nD)
		}
		return alloc, 0, nil
	}
	for x := 0; x < nD; x++ {
		if len(computeCols[x]) > 0 {
			p.AddRow(fmt.Sprintf("cpu[%d]", x), computeCols[x], computeVals[x], lp.LE, cores[x])
		}
	}
	for l := 0; l < nL; l++ {
		if len(netCols[l]) > 0 {
			p.AddRow(fmt.Sprintf("net[%d]", l), netCols[l], netVals[l], lp.LE, linkGbps[l])
		}
	}

	sol, err := p.Solve()
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("LP finished %v", sol.Status)
	}
	alloc := make([][]float64, nC)
	for c := range alloc {
		alloc[c] = make([]float64, nD)
	}
	for _, r := range refs {
		alloc[r.c][r.x] = sol.X[r.col]
	}
	var overflow float64
	for _, ov := range overflowVars {
		overflow += sol.X[ov]
	}
	return alloc, overflow, nil
}
