// Package lp implements linear programming from scratch on top of the
// standard library, providing the optimization substrate Switchboard's
// capacity-provisioning and allocation formulations run on.
//
// There is one solver and it has no options: Solve runs a two-phase revised
// simplex with a sparse column store, an LU-factorized basis, and
// product-form (eta) updates with periodic refactorization. The classic
// full-tableau simplex survives only in the package's tests, as the oracle
// the revised simplex is checked against.
//
// Problems are stated in the natural form
//
//	min (or max)  cᵀx
//	s.t.          aᵢᵀx  {≤,=,≥}  bᵢ      for every row i
//	              x ≥ 0
//
// Upper bounds or free variables, when needed, are expressed as extra rows or
// variable splits by the caller; Switchboard's formulations only need
// nonnegative variables.
package lp

import (
	"fmt"
	"math"
	"sort"
)

// Sense is the optimization direction of a Problem.
type Sense int

// Optimization directions.
const (
	Minimize Sense = iota
	Maximize
)

func (s Sense) String() string {
	switch s {
	case Minimize:
		return "minimize"
	case Maximize:
		return "maximize"
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Rel is the relation of a constraint row.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // aᵀx ≤ b
	GE            // aᵀx ≥ b
	EQ            // aᵀx = b
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies all constraints.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// IterLimit means the iteration budget was exhausted before
	// optimality was proven.
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// entry is a single nonzero coefficient.
type entry struct {
	col int
	val float64
}

// row is one constraint.
type row struct {
	name    string
	entries []entry
	rel     Rel
	rhs     float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create instances with New.
type Problem struct {
	sense    Sense
	obj      []float64
	varNames []string
	rows     []row
}

// New returns an empty problem with the given optimization sense.
func New(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// AddVar adds a nonnegative structural variable with the given objective
// coefficient and returns its column index.
func (p *Problem) AddVar(name string, objCoeff float64) int {
	p.obj = append(p.obj, objCoeff)
	p.varNames = append(p.varNames, name)
	return len(p.obj) - 1
}

// AddRow adds the constraint Σ vals[k]·x[cols[k]] rel rhs and returns its row
// index. cols and vals must have equal length; duplicate column indices
// within one row are summed. Column indices must refer to variables already
// added with AddVar.
func (p *Problem) AddRow(name string, cols []int, vals []float64, rel Rel, rhs float64) int {
	if len(cols) != len(vals) {
		panic(fmt.Sprintf("lp: AddRow %q: %d cols but %d vals", name, len(cols), len(vals)))
	}
	merged := make(map[int]float64, len(cols))
	for k, c := range cols {
		if c < 0 || c >= len(p.obj) {
			panic(fmt.Sprintf("lp: AddRow %q: column %d out of range [0,%d)", name, c, len(p.obj)))
		}
		merged[c] += vals[k]
	}
	entries := make([]entry, 0, len(merged))
	for c, v := range merged {
		if v != 0 {
			entries = append(entries, entry{col: c, val: v})
		}
	}
	// Deterministic entry order keeps solves reproducible run to run.
	sort.Slice(entries, func(i, j int) bool { return entries[i].col < entries[j].col })
	p.rows = append(p.rows, row{name: name, entries: entries, rel: rel, rhs: rhs})
	return len(p.rows) - 1
}

// Eval returns the left-hand-side value of row i at point x.
func (p *Problem) Eval(i int, x []float64) float64 {
	var sum float64
	for _, e := range p.rows[i].entries {
		sum += e.val * x[e.col]
	}
	return sum
}

// CheckFeasible reports whether x satisfies every constraint and the
// nonnegativity bounds within tolerance tol. It returns a descriptive error
// for the first violated condition, which makes it convenient in tests.
func (p *Problem) CheckFeasible(x []float64, tol float64) error {
	if len(x) != len(p.obj) {
		return fmt.Errorf("lp: point has %d entries, problem has %d variables", len(x), len(p.obj))
	}
	for j, v := range x {
		if v < -tol {
			return fmt.Errorf("lp: variable %q = %g violates x >= 0", p.varNames[j], v)
		}
	}
	for i, r := range p.rows {
		lhs := p.Eval(i, x)
		switch r.rel {
		case LE:
			if lhs > r.rhs+tol {
				return fmt.Errorf("lp: row %q: %g <= %g violated by %g", r.name, lhs, r.rhs, lhs-r.rhs)
			}
		case GE:
			if lhs < r.rhs-tol {
				return fmt.Errorf("lp: row %q: %g >= %g violated by %g", r.name, lhs, r.rhs, r.rhs-lhs)
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > tol {
				return fmt.Errorf("lp: row %q: %g == %g violated by %g", r.name, lhs, r.rhs, math.Abs(lhs-r.rhs))
			}
		}
	}
	return nil
}

// Solution is the result of a solve.
type Solution struct {
	// Status reports the solve outcome; X and Objective are only
	// meaningful when Status is Optimal.
	Status Status
	// Objective is the optimal objective value in the problem's original
	// sense.
	Objective float64
	// X holds the values of the structural variables.
	X []float64
	// Duals holds one dual multiplier per constraint row (the simplex
	// multipliers mapped back to the original row orientation).
	Duals []float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

// Solve optimizes the problem and returns the solution. A non-Optimal status
// is reported in Solution.Status, not as an error; errors are reserved for
// malformed problems.
func (p *Problem) Solve() (*Solution, error) {
	return p.solve(func(s *standard) (*Solution, error) { return solveRevised(s, refactorEvery) })
}

// solve runs backend on p's standard form and maps an optimal solution back
// to p's sense. Tests hand it the dense oracle or a shorter refactorization
// interval.
func (p *Problem) solve(backend func(*standard) (*Solution, error)) (*Solution, error) {
	if len(p.obj) == 0 {
		return nil, fmt.Errorf("lp: problem has no variables")
	}
	sol, err := backend(standardize(p))
	if err != nil {
		return nil, err
	}
	if sol.Status == Optimal && p.sense == Maximize {
		sol.Objective = -sol.Objective
		for i := range sol.Duals {
			sol.Duals[i] = -sol.Duals[i]
		}
	}
	return sol, nil
}

// standard is the internal standard form: min cᵀx s.t. Ax = b, x ≥ 0, b ≥ 0,
// stored column-wise. Columns 0..nStruct-1 are structural; the rest are
// slack/surplus columns. Artificial columns are appended by the solvers.
type standard struct {
	nStruct int       // structural variable count
	nCols   int       // structural + slack/surplus
	m       int       // rows
	cost    []float64 // length nCols; minimization costs
	colIdx  [][]int32
	colVal  [][]float64
	b       []float64
	rowSign []float64 // +1 if original row kept, -1 if negated (for duals)
	slackOf []int     // slackOf[i] = column index of row i's slack/surplus, or -1
}

// standardize converts p to equality standard form with nonnegative RHS.
func standardize(p *Problem) *standard {
	m := len(p.rows)
	n := len(p.obj)
	s := &standard{
		nStruct: n,
		m:       m,
		b:       make([]float64, m),
		rowSign: make([]float64, m),
		slackOf: make([]int, m),
	}
	// Count slack columns to size the cost slice.
	nSlack := 0
	for _, r := range p.rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	s.nCols = n + nSlack
	s.cost = make([]float64, s.nCols)
	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}
	for j := 0; j < n; j++ {
		s.cost[j] = sign * p.obj[j]
	}
	s.colIdx = make([][]int32, s.nCols)
	s.colVal = make([][]float64, s.nCols)

	// Build structural columns, flipping rows with negative RHS so b ≥ 0.
	flip := make([]float64, m)
	for i, r := range p.rows {
		f := 1.0
		if r.rhs < 0 {
			f = -1.0
		}
		flip[i] = f
		s.rowSign[i] = f
		s.b[i] = f * r.rhs
	}
	for i, r := range p.rows {
		for _, e := range r.entries {
			s.colIdx[e.col] = append(s.colIdx[e.col], int32(i))
			s.colVal[e.col] = append(s.colVal[e.col], flip[i]*e.val)
		}
	}
	// Slack/surplus columns. A flipped LE row becomes GE and vice versa.
	next := n
	for i, r := range p.rows {
		s.slackOf[i] = -1
		rel := r.rel
		if flip[i] < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			s.colIdx[next] = []int32{int32(i)}
			s.colVal[next] = []float64{1}
			s.slackOf[i] = next
			next++
		case GE:
			s.colIdx[next] = []int32{int32(i)}
			s.colVal[next] = []float64{-1}
			s.slackOf[i] = next
			next++
		}
	}
	return s
}

// recoverDuals maps simplex multipliers y (for the standardized rows) back to
// the original row orientation.
func (s *standard) recoverDuals(y []float64) []float64 {
	duals := make([]float64, s.m)
	for i := range duals {
		duals[i] = s.rowSign[i] * y[i]
	}
	return duals
}
