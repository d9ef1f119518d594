package lp

import (
	"fmt"
	"math"
)

const (
	// tol is the feasibility and optimality tolerance.
	tol = 1e-9
	// refactorEvery is the number of basis changes between
	// refactorizations.
	refactorEvery = 64
)

// iterLimit bounds the simplex pivots of each phase.
func iterLimit(s *standard) int { return 200 * (s.m + s.nStruct + 10) }

// solveRevised runs a two-phase revised simplex with an LU-factorized basis
// and product-form (eta) updates. Constraint columns, the L and U factors and
// the etas all stay sparse, the basis inverse is never formed explicitly, and
// the factorization is rebuilt every refactorK basis changes to bound
// numerical drift. A problem with no rows needs no special case: x = 0 is
// optimal unless pricing finds a negative cost, whose column then has no
// leaving row and is unbounded.
func solveRevised(s *standard, refactorK int) (*Solution, error) {
	rv, err := newRevised(s, refactorK)
	if err != nil {
		return nil, err
	}

	iters := 0
	if rv.nArt > 0 {
		// Phase 1: minimize the sum of artificials.
		c1 := make([]float64, rv.nTotal)
		for j := rv.artStart; j < rv.nTotal; j++ {
			c1[j] = 1
		}
		rv.cost = c1
		st, n, err := rv.iterate(rv.nTotal, iterLimit(s))
		iters += n
		if err != nil {
			return nil, err
		}
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iterations: iters}, nil
		}
		if rv.objective() > 1e-7 {
			return &Solution{Status: Infeasible, Iterations: iters}, nil
		}
	}

	// Phase 2: true costs. Artificials are excluded from pricing; any that
	// remain basic sit at zero, and the ratio test pushes them out (they
	// are treated as bounded above by zero) so they can never turn
	// positive.
	c2 := make([]float64, rv.nTotal)
	copy(c2, s.cost)
	rv.cost = c2
	st, n, err := rv.iterate(rv.artStart, iterLimit(s))
	iters += n
	if err != nil {
		return nil, err
	}
	switch st {
	case IterLimit, Unbounded:
		return &Solution{Status: st, Iterations: iters}, nil
	}

	x := make([]float64, s.nStruct)
	for i, bj := range rv.basis {
		if bj < s.nStruct {
			v := rv.xB[i]
			if v < 0 && v > -1e-9 {
				v = 0
			}
			x[bj] = v
		}
	}
	y := rv.btranCosts()
	return &Solution{
		Status:     Optimal,
		Objective:  rv.objective(),
		X:          x,
		Duals:      s.recoverDuals(y),
		Iterations: iters,
	}, nil
}

// eta is one product-form basis update: the basis matrix was post-multiplied
// by the identity with column r replaced by d = B⁻¹·a_entering. It keeps the
// pivot d[r] and the other nonzeros of d, in ascending row order, as the
// range [lo, hi) of the revised solver's eta arena.
type eta struct {
	r      int
	piv    float64
	lo, hi int
}

type revised struct {
	s        *standard
	m        int
	nTotal   int // structural + slack + artificial columns
	artStart int
	nArt     int
	cost     []float64

	// Sparse columns, artificial identity columns included.
	colIdx [][]int32
	colVal [][]float64

	basis    []int
	basicPos []int // basicPos[j] = row of basic variable j, else -1
	xB       []float64

	bmat    []float64 // dense basis, factored in place
	lu      luFactor
	etas    []eta
	etaIdx  []int32 // eta arena, reset at refactorization
	etaVal  []float64
	refactK int

	// Per-pivot buffers: the simplex multipliers and the entering
	// column's direction.
	y, d []float64
}

func newRevised(s *standard, refactK int) (*revised, error) {
	m := s.m
	basis := make([]int, m)
	needArt := make([]bool, m)
	nArt := 0
	for i := 0; i < m; i++ {
		j := s.slackOf[i]
		if j >= 0 && s.colVal[j][0] > 0 {
			basis[i] = j
		} else {
			needArt[i] = true
			nArt++
		}
	}
	nTotal := s.nCols + nArt
	colIdx := make([][]int32, nTotal)
	colVal := make([][]float64, nTotal)
	copy(colIdx, s.colIdx)
	copy(colVal, s.colVal)
	art := s.nCols
	for i := 0; i < m; i++ {
		if needArt[i] {
			colIdx[art] = []int32{int32(i)}
			colVal[art] = []float64{1}
			basis[i] = art
			art++
		}
	}
	basicPos := make([]int, nTotal)
	for j := range basicPos {
		basicPos[j] = -1
	}
	for i, bj := range basis {
		basicPos[bj] = i
	}
	rv := &revised{
		s: s, m: m, nTotal: nTotal, artStart: s.nCols, nArt: nArt,
		colIdx: colIdx, colVal: colVal,
		basis: basis, basicPos: basicPos,
		xB:      make([]float64, m),
		refactK: refactK,
		bmat:    make([]float64, m*m),
		y:       make([]float64, m),
		d:       make([]float64, m),
	}
	if err := rv.refactorize(); err != nil {
		return nil, err
	}
	return rv, nil
}

// refactorize rebuilds the LU factorization of the current basis, drops the
// eta file, and recomputes the basic solution from scratch.
func (rv *revised) refactorize() error {
	m, bmat := rv.m, rv.bmat
	clear(bmat)
	for i, bj := range rv.basis {
		idx, val := rv.colIdx[bj], rv.colVal[bj]
		for k, r := range idx {
			bmat[int(r)*m+i] = val[k]
		}
	}
	if err := rv.lu.factorize(bmat, m); err != nil {
		return fmt.Errorf("lp: refactorization failed: %w", err)
	}
	rv.etas, rv.etaIdx, rv.etaVal = rv.etas[:0], rv.etaIdx[:0], rv.etaVal[:0]
	copy(rv.xB, rv.s.b)
	rv.lu.solve(rv.xB)
	for i, v := range rv.xB {
		if v < 0 && v > -1e-9 {
			rv.xB[i] = 0
		}
	}
	return nil
}

// ftran computes x = B⁻¹·(sparse column j) into the solver's direction
// buffer, which stays valid until the next ftran.
//
//sblint:hotpath
func (rv *revised) ftran(j int) []float64 {
	x := rv.d
	clear(x)
	idx, val := rv.colIdx[j], rv.colVal[j]
	for k, r := range idx {
		x[r] = val[k]
	}
	rv.lu.solve(x)
	for _, e := range rv.etas {
		xr := x[e.r] / e.piv
		if xr == 0 && x[e.r] == 0 {
			continue
		}
		val := rv.etaVal[e.lo:e.hi]
		for k, i := range rv.etaIdx[e.lo:e.hi] {
			x[i] -= val[k] * xr
		}
		x[e.r] = xr
	}
	return x
}

// btran computes y with yᵀ·B = cᵀ for the dense vector c (overwritten).
//
//sblint:hotpath
func (rv *revised) btran(c []float64) []float64 {
	for k := len(rv.etas) - 1; k >= 0; k-- {
		e := rv.etas[k]
		dot := 0.0
		val := rv.etaVal[e.lo:e.hi]
		for t, i := range rv.etaIdx[e.lo:e.hi] {
			dot += val[t] * c[i]
		}
		c[e.r] = (c[e.r] - dot) / e.piv
	}
	rv.lu.solveT(c)
	return c
}

// btranCosts returns the simplex multipliers y = B⁻ᵀ·c_B for the current
// phase costs in the solver's multiplier buffer.
func (rv *revised) btranCosts() []float64 {
	for i, bj := range rv.basis {
		rv.y[i] = rv.cost[bj]
	}
	return rv.btran(rv.y)
}

func (rv *revised) objective() float64 {
	var obj float64
	for i, bj := range rv.basis {
		obj += rv.cost[bj] * rv.xB[i]
	}
	return obj
}

// iterate runs simplex pivots until optimality for the current costs,
// pricing only columns < priceLimit as entering candidates.
func (rv *revised) iterate(priceLimit, maxIters int) (Status, int, error) {
	iters := 0
	stall := 0
	bland := false
	prevObj := math.Inf(1)
	for ; iters < maxIters; iters++ {
		y := rv.btranCosts()
		q := rv.price(y, priceLimit, bland)
		if q < 0 {
			return Optimal, iters, nil
		}
		d := rv.ftran(q)
		r := rv.ratioTest(d, bland)
		if r < 0 {
			return Unbounded, iters, nil
		}
		rv.update(q, r, d)
		obj := rv.objective()
		if obj >= prevObj-1e-12 {
			stall++
			if stall > 2*rv.m+20 {
				bland = true
			}
		} else {
			stall = 0
			bland = false
		}
		prevObj = obj
		if len(rv.etas) >= rv.refactK {
			if err := rv.refactorize(); err != nil {
				return Optimal, iters, err
			}
		}
	}
	return IterLimit, iters, nil
}

// price selects the entering column among those < priceLimit: the most
// negative reduced cost (Dantzig's rule) normally, the first negative one
// (Bland's rule) under stalling, or -1 when none is negative.
func (rv *revised) price(y []float64, priceLimit int, bland bool) int {
	q := -1
	best := -tol
	for j := 0; j < priceLimit; j++ {
		if rv.basicPos[j] >= 0 {
			continue
		}
		// Reduced cost c_j − yᵀ·a_j over the sparse column.
		z := rv.cost[j]
		idx, val := rv.colIdx[j], rv.colVal[j]
		for k, r := range idx {
			z -= y[r] * val[k]
		}
		if bland {
			if z < -tol {
				return j
			}
			continue
		}
		if z < best {
			best = z
			q = j
		}
	}
	return q
}

// ratioTest picks the leaving row for direction d, or -1 when the step is
// unbounded. Basic artificials (pinned at zero) also leave when d would push
// them positive, which keeps phase 2 honest without Big-M costs.
func (rv *revised) ratioTest(d []float64, bland bool) int {
	r := -1
	minRatio := math.Inf(1)
	for i := 0; i < rv.m; i++ {
		di := d[i]
		var ratio float64
		switch {
		case di > tol:
			ratio = rv.xB[i] / di
		case di < -tol && rv.basis[i] >= rv.artStart:
			// An artificial must stay at zero; a negative direction
			// component would raise it, so it leaves immediately.
			ratio = -rv.xB[i] / di
		default:
			continue
		}
		if ratio < 0 {
			ratio = 0
		}
		if ratio < minRatio-1e-12 {
			minRatio = ratio
			r = i
		} else if ratio < minRatio+1e-12 && r >= 0 && bland && rv.basis[i] < rv.basis[r] {
			r = i
		}
	}
	return r
}

// update applies the pivot: variable q enters, the variable in row r leaves,
// the basic solution moves by step θ, and an eta records the basis change.
func (rv *revised) update(q, r int, d []float64) {
	theta := rv.xB[r] / d[r]
	for i := range rv.xB {
		if i == r {
			continue
		}
		rv.xB[i] -= theta * d[i]
		if rv.xB[i] < 0 && rv.xB[i] > -1e-9 {
			rv.xB[i] = 0
		}
	}
	rv.xB[r] = theta
	rv.basicPos[rv.basis[r]] = -1
	rv.basis[r] = q
	rv.basicPos[q] = r
	lo := len(rv.etaIdx)
	for i, di := range d {
		if di != 0 && i != r {
			rv.etaIdx = append(rv.etaIdx, int32(i))
			rv.etaVal = append(rv.etaVal, di)
		}
	}
	rv.etas = append(rv.etas, eta{r: r, piv: d[r], lo: lo, hi: len(rv.etaIdx)})
}
