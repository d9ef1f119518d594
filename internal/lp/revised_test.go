package lp

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// shapedLP is a provisioning-shaped LP large enough to need the revised
// simplex: nSlots time slots of nGroups demand rows (equalities), each group
// served by five of nSites sites, and per-slot site rows that charge the
// served calls against one shared capacity variable per site. Most
// coefficients are ±1 and every capacity costs the same, so pricing and the
// ratio test tie often; a fifth of the groups carry fractional loads so the
// factors round, and m = 360 rows take several refactorizations.
func shapedLP() *Problem {
	const (
		nSlots  = 2
		nGroups = 140
		nSites  = 40
		nCands  = 5
	)
	p := New(Minimize)
	capVar := make([]int, nSites)
	for s := range capVar {
		capVar[s] = p.AddVar("cap", 1)
	}
	loads := []float64{1, 1, 1, 1, 0.6}
	siteCols := make([][]int, nSlots*nSites)
	siteVals := make([][]float64, nSlots*nSites)
	for t := 0; t < nSlots; t++ {
		for g := 0; g < nGroups; g++ {
			cols := make([]int, nCands)
			ones := make([]float64, nCands)
			for k := range cols {
				s := (g + 8*k + 3*t) % nSites
				cols[k] = p.AddVar("x", 0)
				ones[k] = 1
				siteCols[t*nSites+s] = append(siteCols[t*nSites+s], cols[k])
				siteVals[t*nSites+s] = append(siteVals[t*nSites+s], loads[g%len(loads)])
			}
			p.AddRow("demand", cols, ones, EQ, 1+float64((g+t)%7)/3)
		}
	}
	for i, cols := range siteCols {
		p.AddRow("site", append(cols, capVar[i%nSites]), append(siteVals[i], -1), LE, 0)
	}
	return p
}

// pinnedSolve is a solve's outcome reduced to bit patterns.
type pinnedSolve struct {
	name   string
	status Status
	iters  int
	obj    uint64 // math.Float64bits(Objective)
	x      uint64 // FNV-64a over X's bits
	duals  uint64 // FNV-64a over the duals' bits, −0 folded to +0
}

func hashBits(v []float64, foldNegZero bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, f := range v {
		b := math.Float64bits(f)
		if foldNegZero && b == 1<<63 {
			b = 0
		}
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func pinSolve(t *testing.T, name string, solve func() (*Solution, error)) pinnedSolve {
	t.Helper()
	sol, err := solve()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return pinnedSolve{
		name:   name,
		status: sol.Status,
		iters:  sol.Iterations,
		obj:    math.Float64bits(sol.Objective),
		x:      hashBits(sol.X, false),
		duals:  hashBits(sol.Duals, true),
	}
}

// revisedPins is the pivot path of the revised simplex, recorded from the
// dense-LU implementation it replaced: any change to the pivot sequence or to
// a bit of the primal solution shows up here.
var revisedPins = []pinnedSolve{
	{"random1.0/refactor4/price0", 0, 5, 0x400199999999999a, 0x864196f563a92c81, 0x6cc555d97f7934},
	{"random1.0/refactor0/price0", 0, 5, 0x400199999999999a, 0x864196f563a92c81, 0x6cc555d97f7934},
	{"random1.1/refactor4/price0", 0, 5, 0x4049eeeeeeeeeef1, 0x34b1c8b7b909b235, 0xaafaa858940c0b80},
	{"random1.1/refactor0/price0", 0, 5, 0x4049eeeeeeeeeeef, 0xf14c14f27a9ea580, 0x75092195407adcc3},
	{"random1.2/refactor4/price0", 0, 5, 0x402a000000000000, 0x785b051f5481ae80, 0xf3b2cd9490c24bbb},
	{"random1.2/refactor0/price0", 0, 5, 0x402a000000000000, 0x785b051f5481ae80, 0xa06ec5c24403c6a8},
	{"random1.3/refactor4/price0", 0, 4, 0x0, 0xc8c51503cce7860d, 0xc8210784d8af5a5},
	{"random1.3/refactor0/price0", 0, 4, 0x0, 0xc8c51503cce7860d, 0xc8210784d8af5a5},
	{"random2.0/refactor4/price0", 0, 4, 0x3fd0000000000000, 0x90d25eac483efdd6, 0x54a26c0e1674abe5},
	{"random2.0/refactor0/price0", 0, 4, 0x3fd0000000000000, 0x90d25eac483efdd6, 0x54a26c0e1674abe5},
	{"random2.1/refactor4/price0", 0, 1, 0x3ff999999999999a, 0x2d01751e958c67a4, 0x50b09cc0efaa43f4},
	{"random2.1/refactor0/price0", 0, 1, 0x3ff999999999999a, 0x2d01751e958c67a4, 0x50b09cc0efaa43f4},
	{"random2.2/refactor4/price0", 0, 3, 0x401999999999999a, 0xdbb6405ffefad884, 0x3156d1ac8d4bd4ca},
	{"random2.2/refactor0/price0", 0, 3, 0x401999999999999a, 0xdbb6405ffefad884, 0x3156d1ac8d4bd4ca},
	{"random2.3/refactor4/price0", 0, 2, 0x4032000000000000, 0x8804afb960e7de5d, 0x22690549ba830531},
	{"random2.3/refactor0/price0", 0, 2, 0x4032000000000000, 0x8804afb960e7de5d, 0x22690549ba830531},
	{"random3.0/refactor4/price0", 0, 1, 0x403c000000000000, 0x87e97fb960d0c515, 0xb081efd7461e5eea},
	{"random3.0/refactor0/price0", 0, 1, 0x403c000000000000, 0x87e97fb960d0c515, 0xb081efd7461e5eea},
	{"random3.1/refactor4/price0", 0, 12, 0x4021333333333333, 0xdc861cfdcfa57ce2, 0x1a13abfaae62b767},
	{"random3.1/refactor0/price0", 0, 12, 0x4021333333333333, 0x5e5cd6691661365d, 0x261bcf512d43538c},
	{"random3.2/refactor4/price0", 0, 5, 0x402e000000000002, 0xceecda63733ed791, 0x3a7403cdbcc231f4},
	{"random3.2/refactor0/price0", 0, 5, 0x402dffffffffffff, 0x504bab67511d8c37, 0x1e2c630d9f6e251},
	{"random3.3/refactor4/price0", 0, 8, 0x404c94d653594d64, 0x3c5c865071df45b1, 0x5810a5af5b0e5319},
	{"random3.3/refactor0/price0", 0, 8, 0x404c94d653594d66, 0xbdb3185418cd4820, 0xcf3dcc359f866a18},
	{"random4.0/refactor4/price0", 0, 11, 0x4033333333333334, 0x10214e22c54365ca, 0xf94be076ee008fb9},
	{"random4.0/refactor0/price0", 0, 11, 0x4033333333333332, 0xc390a18e7b0fed, 0xa6203212c6469a9a},
	{"random4.1/refactor4/price0", 0, 7, 0x4051c00000000000, 0x8fe3a76efdf06877, 0x9e4b19c6a5e2b0a0},
	{"random4.1/refactor0/price0", 0, 7, 0x4051c00000000000, 0x24e392dda957996c, 0x7ef35f0cb669ef8},
	{"random4.2/refactor4/price0", 0, 3, 0x4038000000000000, 0x43a6127bf9f1e908, 0xed33ca83dac7c8e9},
	{"random4.2/refactor0/price0", 0, 3, 0x4038000000000000, 0x43a6127bf9f1e908, 0xed33ca83dac7c8e9},
	{"random4.3/refactor4/price0", 0, 2, 0x403c000000000000, 0x5d5280f270d2f9d5, 0x99d24aca09c938c0},
	{"random4.3/refactor0/price0", 0, 2, 0x403c000000000000, 0x5d5280f270d2f9d5, 0x99d24aca09c938c0},
	{"random5.0/refactor4/price0", 0, 5, 0x4045999999999998, 0xa0da1405abc849a9, 0x7c906692ada4c452},
	{"random5.0/refactor0/price0", 0, 5, 0x404599999999999a, 0x3c5eca7de641784b, 0x93d2e61ebb63d870},
	{"random5.1/refactor4/price0", 0, 4, 0x4044aaaaaaaaaaab, 0xae6b0bfcfa5a9b3d, 0x34bd1cef45bf4420},
	{"random5.1/refactor0/price0", 0, 4, 0x4044aaaaaaaaaaaa, 0x1cad2addd0a63a3c, 0xe8f43cd17a2cdee4},
	{"random5.2/refactor4/price0", 0, 2, 0x401e666666666667, 0x1100ee77cb0061b7, 0xee9bc569759ac049},
	{"random5.2/refactor0/price0", 0, 2, 0x401e666666666667, 0x1100ee77cb0061b7, 0xee9bc569759ac049},
	{"random5.3/refactor4/price0", 0, 1, 0x3fd999999999999a, 0x1f009332fae8f554, 0xdffbeb6109bb9f24},
	{"random5.3/refactor0/price0", 0, 1, 0x3fd999999999999a, 0x1f009332fae8f554, 0xdffbeb6109bb9f24},
	{"random6.0/refactor4/price0", 0, 3, 0x4010000000000000, 0xa1727f143b0c813c, 0x545b68f8709217f},
	{"random6.0/refactor0/price0", 0, 3, 0x4010000000000000, 0xa1727f143b0c813c, 0x545b68f8709217f},
	{"random6.1/refactor4/price0", 0, 1, 0x3ff999999999999a, 0xd61a65c2a1bc09a4, 0xe868a7bb114b6974},
	{"random6.1/refactor0/price0", 0, 1, 0x3ff999999999999a, 0xd61a65c2a1bc09a4, 0xe868a7bb114b6974},
	{"random6.2/refactor4/price0", 0, 6, 0x40359bc86f21bc88, 0x21a1ec9b45925bcf, 0x6b235600ff172ed9},
	{"random6.2/refactor0/price0", 0, 6, 0x40359bc86f21bc88, 0x26cc297c2ad55d6, 0x9fe702ce25622d9d},
	{"random6.3/refactor4/price0", 0, 0, 0x0, 0x40d69e0cf0f65c45, 0x81d23fd7003c2305},
	{"random6.3/refactor0/price0", 0, 0, 0x0, 0x40d69e0cf0f65c45, 0x81d23fd7003c2305},
	{"shaped/refactor4/price0", 0, 394, 0x40709eeeeeeeeeee, 0xa3178923b7c57100, 0xe5399f7c325bc999},
	{"shaped/refactor0/price0", 0, 394, 0x40709eeeeeeeeeee, 0xb83c7301cae37bc0, 0xe5399f7c325bc999},
}

// TestRevisedPivotPathPinned solves random feasible LPs and the shaped LP
// with Solve (the refactor0 rows) and with the revised simplex refactoring
// every 4 basis changes, and requires status, iteration count, objective and
// solution bits equal to the pins.
func TestRevisedPivotPathPinned(t *testing.T) {
	type lpCase struct {
		name string
		p    *Problem
	}
	var cases []lpCase
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 4; k++ {
			cases = append(cases, lpCase{fmt.Sprintf("random%d.%d", seed, k), randomFeasibleLP(rng)})
		}
	}
	cases = append(cases, lpCase{"shaped", shapedLP()})
	var got []pinnedSolve
	for _, c := range cases {
		for _, refactor := range []int{4, 0} {
			name := fmt.Sprintf("%s/refactor%d/price0", c.name, refactor)
			solve := c.p.Solve
			if refactor > 0 {
				solve = func() (*Solution, error) { return c.p.solve(revisedEvery(refactor)) }
			}
			got = append(got, pinSolve(t, name, solve))
		}
	}
	if len(got) != len(revisedPins) {
		t.Errorf("%d solves, %d pins", len(got), len(revisedPins))
	}
	for i, g := range got {
		if i >= len(revisedPins) || g != revisedPins[i] {
			t.Errorf("pin mismatch, got:\n\t{%q, %d, %d, %#x, %#x, %#x},",
				g.name, g.status, g.iters, g.obj, g.x, g.duals)
		}
	}
}

// TestRevisedIterateAllocs runs phase 1 of the shaped LP and requires at most
// a quarter of an allocation per pivot: the factors, the eta arena and the
// per-pivot vectors are reused, so only arena growth allocates.
func TestRevisedIterateAllocs(t *testing.T) {
	p := shapedLP()
	s := standardize(p)
	rv, err := newRevised(s, refactorEvery)
	if err != nil {
		t.Fatal(err)
	}
	rv.cost = make([]float64, rv.nTotal)
	for j := rv.artStart; j < rv.nTotal; j++ {
		rv.cost[j] = 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, pivots, err := rv.iterate(rv.nTotal, iterLimit(s))
	runtime.ReadMemStats(&after)
	if err != nil || st != Optimal || pivots == 0 {
		t.Fatalf("phase 1: status %v after %d pivots, err %v", st, pivots, err)
	}
	perPivot := float64(after.Mallocs-before.Mallocs) / float64(pivots)
	t.Logf("%d pivots, %.3f allocations per pivot", pivots, perPivot)
	if perPivot > 0.25 {
		t.Errorf("%.3f allocations per pivot, want at most 0.25", perPivot)
	}
}

// BenchmarkRevisedShaped solves the shaped LP with Solve: a sparse basis,
// the production case (BenchmarkLUFactorize200 is the dense worst case).
func BenchmarkRevisedShaped(b *testing.B) {
	benchShaped(b, func(p *Problem) (*Solution, error) { return p.Solve() })
}

// BenchmarkDenseOracleShaped solves the same LP with the dense tableau
// oracle, the solver small LPs went to before the revised simplex became the
// only one (ablation A1).
func BenchmarkDenseOracleShaped(b *testing.B) {
	benchShaped(b, func(p *Problem) (*Solution, error) { return p.solve(solveDense) })
}

func benchShaped(b *testing.B, solve func(*Problem) (*Solution, error)) {
	p := shapedLP()
	b.ReportAllocs()
	pivots := 0
	for i := 0; i < b.N; i++ {
		sol, err := solve(p)
		if err != nil || sol.Status != Optimal {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
		pivots += sol.Iterations
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
}
