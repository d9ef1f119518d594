package provision

import (
	"fmt"
	"sort"

	"switchboard/internal/lp"
)

// Scenario is one failure scenario: a set of DCs and WAN links that are down
// simultaneously. The paper's default model is a single DC or a single link
// (§5.3, "Failure model"); it also notes the framework easily incorporates
// more sophisticated scenarios — pass those via Inputs.ExtraScenarios (for
// example a whole region's DCs, or a seismic event taking several cables).
type Scenario struct {
	// Name labels the scenario in errors and logs.
	Name string
	// DCs are the failed datacenter IDs.
	DCs []int
	// Links are the failed WAN link IDs.
	Links []int
}

func (s Scenario) String() string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("F{dcs=%v links=%v}", s.DCs, s.Links)
}

func (s Scenario) dcDown(x int) bool {
	for _, d := range s.DCs {
		if d == x {
			return true
		}
	}
	return false
}

func (s Scenario) linkDown(l int) bool {
	for _, f := range s.Links {
		if f == l {
			return true
		}
	}
	return false
}

// empty reports whether this is the no-failure scenario F0.
func (s Scenario) empty() bool { return len(s.DCs) == 0 && len(s.Links) == 0 }

// Switchboard implements the paper's provisioning LP (§5.3, Eq 3–9): a joint
// compute+network optimization that is peak-aware (allocation shares S[t,c,x]
// vary per slot while capacity pays only for the peak) and, with backup
// enabled, provisions for every single-DC and single-loaded-link failure
// scenario — plus any Inputs.ExtraScenarios — taking the per-resource
// maximum across scenarios (Eq 7–8).
func Switchboard(in *Inputs) (*Plan, error) {
	lm, err := NewLoadModel(in)
	if err != nil {
		return nil, err
	}
	return switchboardWith(lm)
}

func switchboardWith(lm *LoadModel) (*Plan, error) {
	nD := len(lm.world.DCs())
	nL := len(lm.world.Links())

	cores, link, alloc, err := solveScenario(lm, Scenario{Name: "F0"})
	if err != nil {
		return nil, fmt.Errorf("provision: scenario F0: %w", err)
	}

	if lm.in.WithBackup {
		var scenarios []Scenario
		for f := 0; f < nD; f++ {
			scenarios = append(scenarios, Scenario{
				Name: "F_DC(" + lm.world.DCs()[f].Name + ")",
				DCs:  []int{f},
			})
		}
		if !lm.in.DCFailuresOnly {
			// Single-link failures; only links loaded in the
			// no-failure solution can force extra capacity elsewhere.
			for l := 0; l < nL; l++ {
				if link[l] <= 1e-12 {
					continue
				}
				scenarios = append(scenarios, Scenario{
					Name:  fmt.Sprintf("F_L(%d)", l),
					Links: []int{l},
				})
			}
		}
		scenarios = append(scenarios, lm.in.ExtraScenarios...)
		for _, sc := range scenarios {
			if sc.empty() {
				continue
			}
			c2, l2, _, err := solveScenario(lm, sc)
			if err != nil {
				return nil, fmt.Errorf("provision: scenario %v: %w", sc, err)
			}
			maxInto(cores, c2)
			maxInto(link, l2)
		}
	}

	return &Plan{
		Scheme:   "switchboard",
		Cores:    cores,
		LinkGbps: link,
		Alloc:    alloc,
		Demand:   lm.demand,
	}, nil
}

func maxInto(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// solveScenario builds and solves the provisioning LP for one failure
// scenario: failed DCs are removed (with all their traffic rehomed), failed
// links are removed (paths reroute around them; DCs whose path to a
// participant disappears become ineligible for that config).
func solveScenario(lm *LoadModel, sc Scenario) (cores, link []float64, alloc [][][]float64, err error) {
	w := lm.world
	d := lm.demand
	nT, nC := len(d.Counts), len(d.Configs)
	nD, nL := len(w.DCs()), len(w.Links())

	cand, loads, err := scenarioCandidates(lm, sc)
	if err != nil {
		return nil, nil, nil, err
	}

	p := lp.New(lp.Minimize)

	cpVar := make([]int, nD)
	for x := range cpVar {
		cpVar[x] = -1
		if !sc.dcDown(x) {
			cpVar[x] = p.AddVar(fmt.Sprintf("CP[%s]", w.DCs()[x].Name), w.DCs()[x].CoreCost)
		}
	}
	npVar := make([]int, nL)
	for l := range npVar {
		npVar[l] = -1
		if !sc.linkDown(l) {
			cost := w.Links()[l].CostPerGbps
			if lm.in.IgnoreNetworkCost {
				cost *= 1e-6
			}
			npVar[l] = p.AddVar(fmt.Sprintf("NP[%d]", l), cost)
		}
	}

	// S variables, created only where demand exists. Bookkeeping arrays
	// map each S column back to (t, c, x) for extraction.
	type sRef struct{ t, c, x int }
	var refs []sRef
	// Per-(t,x) and per-(t,l) accumulation of row terms.
	computeCols := make(map[[2]int][]int)     // (t,x) -> S columns
	computeVals := make(map[[2]int][]float64) // matching CL coefficients
	netCols := make(map[[2]int][]int)         // (t,l) -> S columns
	netVals := make(map[[2]int][]float64)

	for t := 0; t < nT; t++ {
		for c := 0; c < nC; c++ {
			dem := d.Counts[t][c]
			if dem <= 0 {
				continue
			}
			var rowCols []int
			var rowVals []float64
			for _, x := range cand[c] {
				v := p.AddVar(fmt.Sprintf("S[%d,%d,%d]", t, c, x), 0)
				refs = append(refs, sRef{t, c, x})
				rowCols = append(rowCols, v)
				rowVals = append(rowVals, 1)

				k := [2]int{t, x}
				computeCols[k] = append(computeCols[k], v)
				computeVals[k] = append(computeVals[k], lm.cl[c])
				for _, ls := range loads[c][x] {
					k := [2]int{t, ls.link}
					netCols[k] = append(netCols[k], v)
					netVals[k] = append(netVals[k], ls.gbps)
				}
			}
			if len(rowCols) == 0 {
				return nil, nil, nil, fmt.Errorf("config %q has no eligible DC in scenario %v",
					d.Configs[c].Key(), sc)
			}
			// Completeness (Eq 9).
			p.AddRow(fmt.Sprintf("demand[%d,%d]", t, c), rowCols, rowVals, lp.EQ, dem)
		}
	}

	// Serving capacity constraints (Eq 5, 6): usage ≤ peak variable. Rows
	// are emitted in sorted key order so solves are fully deterministic.
	for _, k := range sortedKeys(computeCols) {
		cols := append(append([]int(nil), computeCols[k]...), cpVar[k[1]])
		vals := append(append([]float64(nil), computeVals[k]...), -1)
		p.AddRow(fmt.Sprintf("cpu[%d,%d]", k[0], k[1]), cols, vals, lp.LE, 0)
	}
	for _, k := range sortedKeys(netCols) {
		if npVar[k[1]] < 0 {
			// Load mapped onto a failed link: impossible by
			// construction (paths avoid it).
			return nil, nil, nil, fmt.Errorf("internal: load on failed link %d", k[1])
		}
		cols := append(append([]int(nil), netCols[k]...), npVar[k[1]])
		vals := append(append([]float64(nil), netVals[k]...), -1)
		p.AddRow(fmt.Sprintf("net[%d,%d]", k[0], k[1]), cols, vals, lp.LE, 0)
	}

	sol, err := p.Solve()
	if err != nil {
		return nil, nil, nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, nil, nil, fmt.Errorf("LP finished %v", sol.Status)
	}

	cores = make([]float64, nD)
	for x, v := range cpVar {
		if v >= 0 {
			cores[x] = sol.X[v]
		}
	}
	link = make([]float64, nL)
	for l, v := range npVar {
		if v >= 0 {
			link[l] = sol.X[v]
		}
	}
	alloc = newAlloc(nT, nC, nD)
	base := nDvars(cpVar) + nDvars(npVar)
	for i, r := range refs {
		alloc[r.t][r.c][r.x] = sol.X[base+i]
	}
	return cores, link, alloc, nil
}

func sortedKeys(m map[[2]int][]int) [][2]int {
	keys := make([][2]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

func nDvars(vars []int) int {
	n := 0
	for _, v := range vars {
		if v >= 0 {
			n++
		}
	}
	return n
}

// scenarioCandidates computes each config's eligible DCs and per-DC link
// loads under the scenario. A DC is eligible if it passed the latency filter
// (Eq 4), is alive, and can still route to every participant.
func scenarioCandidates(lm *LoadModel, sc Scenario) ([][]int, [][][]linkShare, error) {
	nC := len(lm.demand.Configs)
	nD := len(lm.world.DCs())
	cand := make([][]int, nC)
	loads := make([][][]linkShare, nC)
	for c := 0; c < nC; c++ {
		loads[c] = make([][]linkShare, nD)
		for _, x := range lm.allowed[c] {
			if sc.dcDown(x) {
				continue
			}
			ls, ok := scenarioPathLoads(lm, c, x, sc.Links)
			if !ok {
				continue
			}
			cand[c] = append(cand[c], x)
			loads[c][x] = ls
		}
		if len(cand[c]) == 0 {
			// Fall back to the best-ACL DC that is alive and routable
			// (the paper's min-ACL escape hatch, applied per scenario).
			if best, ok := bestReachableDC(lm, c, sc); ok {
				ls, _ := scenarioPathLoads(lm, c, best, sc.Links)
				cand[c] = []int{best}
				loads[c][best] = ls
				continue
			}
			// Some participant is cut off from every DC (the failed
			// links formed a cut). No provisioning decision can reach
			// them; serve the reachable participants from the best
			// alive DC and account only their traffic.
			best := partitionFallbackDC(lm, c, sc)
			if best < 0 {
				return nil, nil, fmt.Errorf("no DC alive in scenario %v", sc)
			}
			cand[c] = []int{best}
			loads[c][best] = partialPathLoads(lm, c, best, sc.Links)
		}
	}
	return cand, loads, nil
}

// scenarioPathLoads returns per-link loads for (config, DC) under link
// failures, reporting ok=false when some participant becomes unreachable.
func scenarioPathLoads(lm *LoadModel, c, x int, failedLinks []int) ([]linkShare, bool) {
	if len(failedLinks) == 0 {
		return lm.linkLoad[c][x], true
	}
	cfg := lm.demand.Configs[c]
	usesFailed := false
	for _, ls := range lm.linkLoad[c][x] {
		for _, f := range failedLinks {
			if ls.link == f {
				usesFailed = true
				break
			}
		}
	}
	if !usesFailed {
		return lm.linkLoad[c][x], true
	}
	for _, cc := range cfg.Spread {
		if lm.world.PathAvoidingSet(x, cc.Country, failedLinks) == nil {
			return nil, false
		}
	}
	return lm.pathLoadsMulti(cfg, x, failedLinks), true
}

// partitionFallbackDC picks the lowest-ACL alive DC for a config whose
// participants are partially unreachable under link failures.
func partitionFallbackDC(lm *LoadModel, c int, sc Scenario) int {
	best, bestACL := -1, 0.0
	for x := range lm.world.DCs() {
		if sc.dcDown(x) {
			continue
		}
		if a := lm.acl[c][x]; best < 0 || a < bestACL {
			best, bestACL = x, a
		}
	}
	return best
}

// partialPathLoads aggregates link loads for only the participants that
// remain reachable from DC x when the failed links are down.
func partialPathLoads(lm *LoadModel, c, x int, failedLinks []int) []linkShare {
	cfg := lm.demand.Configs[c]
	perLink := make(map[int]float64)
	mbps := cfg.Media.NetworkLoad()
	for _, cc := range cfg.Spread {
		path := lm.world.PathAvoidingSet(x, cc.Country, failedLinks)
		if path == nil {
			continue // behind the partition
		}
		for _, l := range path {
			perLink[l] += mbps * float64(cc.Count) / 1000
		}
	}
	return sortedShares(perLink)
}

func sortedShares(perLink map[int]float64) []linkShare {
	out := make([]linkShare, 0, len(perLink))
	for l, g := range perLink {
		out = append(out, linkShare{link: l, gbps: g})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].link < out[j].link })
	return out
}

func bestReachableDC(lm *LoadModel, c int, sc Scenario) (int, bool) {
	best, bestACL := -1, 0.0
	for x := range lm.world.DCs() {
		if sc.dcDown(x) {
			continue
		}
		if _, ok := scenarioPathLoads(lm, c, x, sc.Links); !ok {
			continue
		}
		if a := lm.acl[c][x]; best < 0 || a < bestACL {
			best, bestACL = x, a
		}
	}
	return best, best >= 0
}
