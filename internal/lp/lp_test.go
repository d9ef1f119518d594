package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveBoth(t *testing.T, p *Problem) (dense, revised *Solution) {
	t.Helper()
	d, err := p.solve(solveDense)
	if err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	r, err := p.Solve()
	if err != nil {
		t.Fatalf("revised solve: %v", err)
	}
	return d, r
}

// revisedEvery is the revised simplex refactoring every k basis changes, as
// a backend for Problem.solve.
func revisedEvery(k int) func(*standard) (*Solution, error) {
	return func(s *standard) (*Solution, error) { return solveRevised(s, k) }
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig
	// example; optimum 36 at x=2, y=6).
	p := New(Maximize)
	x := p.AddVar("x", 3)
	y := p.AddVar("y", 5)
	p.AddRow("r1", []int{x}, []float64{1}, LE, 4)
	p.AddRow("r2", []int{y}, []float64{2}, LE, 12)
	p.AddRow("r3", []int{x, y}, []float64{3, 2}, LE, 18)
	for _, sol := range func() []*Solution { d, r := solveBoth(t, p); return []*Solution{d, r} }() {
		if sol.Status != Optimal {
			t.Fatalf("status = %v, want optimal", sol.Status)
		}
		if math.Abs(sol.Objective-36) > 1e-6 {
			t.Errorf("objective = %g, want 36", sol.Objective)
		}
		if math.Abs(sol.X[x]-2) > 1e-6 || math.Abs(sol.X[y]-6) > 1e-6 {
			t.Errorf("x = %v, want [2 6]", sol.X)
		}
	}
}

func TestSimpleMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3. Optimum: x=7, y=3 -> 23.
	p := New(Minimize)
	x := p.AddVar("x", 2)
	y := p.AddVar("y", 3)
	p.AddRow("sum", []int{x, y}, []float64{1, 1}, GE, 10)
	p.AddRow("xmin", []int{x}, []float64{1}, GE, 2)
	p.AddRow("ymin", []int{y}, []float64{1}, GE, 3)
	d, r := solveBoth(t, p)
	for _, sol := range []*Solution{d, r} {
		if sol.Status != Optimal {
			t.Fatalf("status = %v", sol.Status)
		}
		if math.Abs(sol.Objective-23) > 1e-6 {
			t.Errorf("objective = %g, want 23", sol.Objective)
		}
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + 2y + 3z s.t. x+y+z = 6, y - z = 1. One optimum: z=0,y=1,x=5 -> 10... check:
	// obj(5,1,0)=5+2=7. Try x=0: y+z=6, y-z=1 -> y=3.5,z=2.5 -> 7+7.5=14.5. So x big is better: 7.
	p := New(Minimize)
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 2)
	z := p.AddVar("z", 3)
	p.AddRow("sum", []int{x, y, z}, []float64{1, 1, 1}, EQ, 6)
	p.AddRow("diff", []int{y, z}, []float64{1, -1}, EQ, 1)
	d, r := solveBoth(t, p)
	for _, sol := range []*Solution{d, r} {
		if sol.Status != Optimal {
			t.Fatalf("status = %v", sol.Status)
		}
		if math.Abs(sol.Objective-7) > 1e-6 {
			t.Errorf("objective = %g, want 7 (x=%v)", sol.Objective, sol.X)
		}
		if err := p.CheckFeasible(sol.X, 1e-7); err != nil {
			t.Errorf("solution infeasible: %v", err)
		}
	}
}

func TestInfeasible(t *testing.T) {
	p := New(Minimize)
	x := p.AddVar("x", 1)
	p.AddRow("lo", []int{x}, []float64{1}, GE, 5)
	p.AddRow("hi", []int{x}, []float64{1}, LE, 3)
	d, r := solveBoth(t, p)
	if d.Status != Infeasible {
		t.Errorf("dense status = %v, want infeasible", d.Status)
	}
	if r.Status != Infeasible {
		t.Errorf("revised status = %v, want infeasible", r.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddRow("r", []int{x, y}, []float64{1, -1}, LE, 4)
	d, r := solveBoth(t, p)
	if d.Status != Unbounded {
		t.Errorf("dense status = %v, want unbounded", d.Status)
	}
	if r.Status != Unbounded {
		t.Errorf("revised status = %v, want unbounded", r.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -5  (i.e. x >= 5)
	p := New(Minimize)
	x := p.AddVar("x", 1)
	p.AddRow("r", []int{x}, []float64{-1}, LE, -5)
	d, r := solveBoth(t, p)
	for _, sol := range []*Solution{d, r} {
		if sol.Status != Optimal || math.Abs(sol.X[x]-5) > 1e-7 {
			t.Errorf("got %v x=%v, want optimal x=5", sol.Status, sol.X)
		}
	}
}

func TestDegenerate(t *testing.T) {
	// A degenerate problem that cycles under naive pivoting (Beale's
	// example). min -0.75x4 + 150x5 - 0.02x6 + 6x7 with classic rows.
	p := New(Minimize)
	x4 := p.AddVar("x4", -0.75)
	x5 := p.AddVar("x5", 150)
	x6 := p.AddVar("x6", -0.02)
	x7 := p.AddVar("x7", 6)
	p.AddRow("r1", []int{x4, x5, x6, x7}, []float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddRow("r2", []int{x4, x5, x6, x7}, []float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddRow("r3", []int{x6}, []float64{1}, LE, 1)
	d, r := solveBoth(t, p)
	for _, sol := range []*Solution{d, r} {
		if sol.Status != Optimal {
			t.Fatalf("status = %v, want optimal", sol.Status)
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
			t.Errorf("objective = %g, want -0.05", sol.Objective)
		}
	}
}

func TestRedundantRows(t *testing.T) {
	// Duplicate equality rows force a redundant artificial to stay basic.
	p := New(Minimize)
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddRow("e1", []int{x, y}, []float64{1, 1}, EQ, 4)
	p.AddRow("e2", []int{x, y}, []float64{2, 2}, EQ, 8)
	p.AddRow("e3", []int{x, y}, []float64{1, 1}, EQ, 4)
	d, r := solveBoth(t, p)
	for _, sol := range []*Solution{d, r} {
		if sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-6 {
			t.Errorf("got %v obj=%g, want optimal obj=4", sol.Status, sol.Objective)
		}
	}
}

func TestDualsTransportation(t *testing.T) {
	// Small transportation problem; verify strong duality: cᵀx = bᵀy for
	// the recovered duals.
	p := New(Minimize)
	cost := [][]float64{{4, 6}, {5, 3}}
	var vars [2][2]int
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			vars[i][j] = p.AddVar("s", cost[i][j])
		}
	}
	supply := []float64{30, 20}
	demand := []float64{25, 25}
	var rhs []float64
	for i := 0; i < 2; i++ {
		p.AddRow("supply", []int{vars[i][0], vars[i][1]}, []float64{1, 1}, LE, supply[i])
		rhs = append(rhs, supply[i])
	}
	for j := 0; j < 2; j++ {
		p.AddRow("demand", []int{vars[0][j], vars[1][j]}, []float64{1, 1}, GE, demand[j])
		rhs = append(rhs, demand[j])
	}
	d, r := solveBoth(t, p)
	for name, sol := range map[string]*Solution{"dense": d, "revised": r} {
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v", name, sol.Status)
		}
		var dualObj float64
		for i, y := range sol.Duals {
			dualObj += y * rhs[i]
		}
		if math.Abs(dualObj-sol.Objective) > 1e-6 {
			t.Errorf("%s: dual objective %g != primal %g", name, dualObj, sol.Objective)
		}
	}
}

// randomFeasibleLP builds a random LP that is guaranteed feasible (a known
// nonnegative point is used to set compatible RHS values) and bounded (all
// objective coefficients are nonnegative under Minimize).
func randomFeasibleLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(8)
	m := 1 + rng.Intn(8)
	p := New(Minimize)
	point := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddVar("x", float64(rng.Intn(10)))
		point[j] = float64(rng.Intn(5))
	}
	for i := 0; i < m; i++ {
		k := 1 + rng.Intn(n)
		cols := rng.Perm(n)[:k]
		vals := make([]float64, k)
		lhs := 0.0
		for t := range vals {
			vals[t] = float64(rng.Intn(11) - 5)
			lhs += vals[t] * point[cols[t]]
		}
		switch rng.Intn(3) {
		case 0:
			p.AddRow("r", cols, vals, LE, lhs+float64(rng.Intn(5)))
		case 1:
			p.AddRow("r", cols, vals, GE, lhs-float64(rng.Intn(5)))
		default:
			p.AddRow("r", cols, vals, EQ, lhs)
		}
	}
	return p
}

// TestPropertyDenseMatchesRevised cross-validates the revised simplex, at
// its own refactorization interval and refactoring every 4 basis changes,
// against the dense oracle on many random feasible LPs: identical status,
// matching objectives, and feasible primal points.
func TestPropertyDenseMatchesRevised(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		p := randomFeasibleLP(rng)
		d, err := p.solve(solveDense)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		if d.Status == Optimal {
			if err := p.CheckFeasible(d.X, 1e-6); err != nil {
				t.Fatalf("trial %d: dense point: %v", trial, err)
			}
		}
		for _, k := range []int{refactorEvery, 4} {
			r, err := p.solve(revisedEvery(k))
			if err != nil {
				t.Fatalf("trial %d: revised/%d: %v", trial, k, err)
			}
			if d.Status != r.Status {
				t.Fatalf("trial %d: status dense=%v revised/%d=%v", trial, d.Status, k, r.Status)
			}
			if d.Status != Optimal {
				continue
			}
			if math.Abs(d.Objective-r.Objective) > 1e-5*(1+math.Abs(d.Objective)) {
				t.Fatalf("trial %d: objective dense=%g revised/%d=%g", trial, d.Objective, k, r.Objective)
			}
			if err := p.CheckFeasible(r.X, 1e-6); err != nil {
				t.Fatalf("trial %d: revised/%d point: %v", trial, k, err)
			}
		}
	}
}

// TestPropertyDualityGap checks strong duality on random feasible, bounded
// LPs for Solve and the dense oracle.
func TestPropertyDualityGap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := randomFeasibleLP(rng)
		d, r := solveBoth(t, p)
		for name, sol := range map[string]*Solution{"dense": d, "revised": r} {
			if sol.Status != Optimal {
				continue
			}
			var dualObj float64
			for i := range p.rows {
				dualObj += sol.Duals[i] * p.rows[i].rhs
			}
			if math.Abs(dualObj-sol.Objective) > 1e-5*(1+math.Abs(sol.Objective)) {
				t.Fatalf("trial %d %s: duality gap primal=%g dual=%g", trial, name, sol.Objective, dualObj)
			}
		}
	}
}

func TestMaximizeDualsSign(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar("x", 1)
	p.AddRow("cap", []int{x}, []float64{1}, LE, 7)
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", err, sol)
	}
	if math.Abs(sol.Objective-7) > 1e-9 {
		t.Errorf("objective = %g, want 7", sol.Objective)
	}
	// Shadow price of the capacity should be +1 in the maximize sense.
	if math.Abs(sol.Duals[0]-1) > 1e-7 {
		t.Errorf("dual = %g, want 1", sol.Duals[0])
	}
}

func TestNoVariables(t *testing.T) {
	p := New(Minimize)
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for empty problem")
	}
}

func TestNoConstraints(t *testing.T) {
	p := New(Minimize)
	p.AddVar("x", 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.X[0] != 0 {
		t.Errorf("got %v %v, want optimal x=0", sol.Status, sol.X)
	}
	p2 := New(Maximize)
	p2.AddVar("x", 2)
	sol2, err := p2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != Unbounded {
		t.Errorf("got %v, want unbounded", sol2.Status)
	}
}

func TestDuplicateColumnsMerged(t *testing.T) {
	p := New(Minimize)
	x := p.AddVar("x", 1)
	p.AddRow("r", []int{x, x}, []float64{1, 1}, GE, 10) // 2x >= 10
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[x]-5) > 1e-7 {
		t.Errorf("x = %g, want 5", sol.X[x])
	}
}

func TestAddRowValidation(t *testing.T) {
	p := New(Minimize)
	p.AddVar("x", 1)
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { p.AddRow("bad", []int{0}, []float64{1, 2}, LE, 1) })
	mustPanic(func() { p.AddRow("bad", []int{5}, []float64{1}, LE, 1) })
}

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Minimize.String(), "minimize"},
		{Maximize.String(), "maximize"},
		{LE.String(), "<="},
		{GE.String(), ">="},
		{EQ.String(), "=="},
		{Optimal.String(), "optimal"},
		{Infeasible.String(), "infeasible"},
		{Unbounded.String(), "unbounded"},
		{IterLimit.String(), "iteration-limit"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}
