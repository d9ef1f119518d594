package lp

import (
	"math"
)

// solveDense runs a two-phase full-tableau simplex on the standardized
// problem. It is the oracle the revised simplex is checked against: O(m·n)
// per pivot and O(m·n) memory, and straightforward to audit.
func solveDense(s *standard) (*Solution, error) {
	m := s.m
	if m == 0 {
		// No constraints: optimum is x = 0 when costs are nonnegative,
		// otherwise unbounded below.
		for _, c := range s.cost {
			if c < -tol {
				return &Solution{Status: Unbounded}, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, s.nStruct), Duals: nil}, nil
	}

	// Decide which rows get artificial columns: rows whose slack enters
	// with +1 can use the slack as the initial basic variable.
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
	artStart := s.nCols

	// Dense row-major tableau.
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, nTotal)
	}
	for j := 0; j < s.nCols; j++ {
		idx, val := s.colIdx[j], s.colVal[j]
		for k, r := range idx {
			a[r][j] = val[k]
		}
	}
	idCol := make([]int, m) // initial identity column per row, for duals
	art := artStart
	for i := 0; i < m; i++ {
		if needArt[i] {
			a[i][art] = 1
			basis[i] = art
			idCol[i] = art
			art++
		} else {
			idCol[i] = basis[i]
		}
	}
	rhs := make([]float64, m)
	copy(rhs, s.b)

	t := &denseTableau{
		a: a, rhs: rhs, basis: basis,
		nTotal: nTotal, artStart: artStart, m: m,
	}

	iters := 0
	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		c1 := make([]float64, nTotal)
		for j := artStart; j < nTotal; j++ {
			c1[j] = 1
		}
		t.setCosts(c1)
		st, n := t.iterate(nTotal, iterLimit(s))
		iters += n
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iterations: iters}, nil
		}
		if t.objVal() > 1e-7 {
			return &Solution{Status: Infeasible, Iterations: iters}, nil
		}
		t.evictArtificials()
	}

	// Phase 2: minimize the true cost, pricing only non-artificials.
	c2 := make([]float64, nTotal)
	copy(c2, s.cost)
	t.setCosts(c2)
	st, n := t.iterate(artStart, iterLimit(s))
	iters += n
	switch st {
	case IterLimit, Unbounded:
		return &Solution{Status: st, Iterations: iters}, nil
	}

	x := make([]float64, s.nStruct)
	for i, bj := range t.basis {
		if bj < s.nStruct {
			x[bj] = t.rhs[i]
		}
	}
	// Duals: y_i = c_idCol - z_idCol; initial basic columns have cost 0
	// (slack or artificial), so y_i = -z[idCol[i]].
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		y[i] = c2[idCol[i]] - t.z[idCol[i]]
		if idCol[i] >= artStart {
			y[i] = -t.z[idCol[i]]
		}
	}
	return &Solution{
		Status:     Optimal,
		Objective:  t.objVal(),
		X:          x,
		Duals:      s.recoverDuals(y),
		Iterations: iters,
	}, nil
}

// denseTableau holds the canonical-form tableau B⁻¹A together with the
// reduced-cost row for the current phase.
type denseTableau struct {
	a        [][]float64
	rhs      []float64
	basis    []int
	z        []float64 // reduced costs
	obj      float64   // current objective value (minimization)
	nTotal   int
	artStart int
	m        int
}

func (t *denseTableau) objVal() float64 { return t.obj }

// setCosts recomputes the reduced-cost row z_j = c_j − c_Bᵀ B⁻¹ a_j for the
// current basis, using the already-canonicalized tableau rows.
func (t *denseTableau) setCosts(c []float64) {
	z := make([]float64, t.nTotal)
	copy(z, c)
	obj := 0.0
	for i, bj := range t.basis {
		cb := c[bj]
		if cb == 0 {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.nTotal; j++ {
			z[j] -= cb * ai[j]
		}
		obj += cb * t.rhs[i]
	}
	t.z = z
	t.obj = obj
}

// iterate pivots until optimal for the current cost row, considering only
// entering columns < priceLimit. It returns a status (Optimal, Unbounded, or
// IterLimit) and the number of pivots performed.
func (t *denseTableau) iterate(priceLimit, maxIters int) (Status, int) {
	iters := 0
	stall := 0
	bland := false
	for ; iters < maxIters; iters++ {
		// Pricing: Dantzig rule normally, Bland's rule under stalling
		// to guarantee termination on degenerate problems.
		q := -1
		if bland {
			for j := 0; j < priceLimit; j++ {
				if t.z[j] < -tol {
					q = j
					break
				}
			}
		} else {
			best := -tol
			for j := 0; j < priceLimit; j++ {
				if t.z[j] < best {
					best = t.z[j]
					q = j
				}
			}
		}
		if q < 0 {
			return Optimal, iters
		}
		// Ratio test.
		r := -1
		minRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			d := t.a[i][q]
			if d > tol {
				ratio := t.rhs[i] / d
				if ratio < minRatio-1e-12 || (bland && ratio < minRatio+1e-12 && (r < 0 || t.basis[i] < t.basis[r])) {
					minRatio = ratio
					r = i
				}
			}
		}
		if r < 0 {
			return Unbounded, iters
		}
		prevObj := t.obj
		t.pivot(r, q)
		if t.obj >= prevObj-1e-12 {
			stall++
			if stall > 2*t.m+20 {
				bland = true
			}
		} else {
			stall = 0
			bland = false
		}
	}
	return IterLimit, iters
}

// pivot makes column q basic in row r by Gauss-Jordan elimination over the
// tableau, the RHS, and the reduced-cost row.
func (t *denseTableau) pivot(r, q int) {
	ar := t.a[r]
	piv := ar[q]
	inv := 1 / piv
	for j := 0; j < t.nTotal; j++ {
		ar[j] *= inv
	}
	ar[q] = 1 // kill roundoff
	t.rhs[r] *= inv
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][q]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.nTotal; j++ {
			ai[j] -= f * ar[j]
		}
		ai[q] = 0
		t.rhs[i] -= f * t.rhs[r]
		if t.rhs[i] < 0 && t.rhs[i] > -1e-11 {
			t.rhs[i] = 0
		}
	}
	f := t.z[q]
	if f != 0 {
		for j := 0; j < t.nTotal; j++ {
			t.z[j] -= f * ar[j]
		}
		t.z[q] = 0
		t.obj += f * t.rhs[r]
	}
	t.basis[r] = q
}

// evictArtificials pivots zero-valued artificial variables out of the basis
// after phase 1 so they cannot re-enter in phase 2. Rows whose every
// non-artificial coefficient is zero are redundant and left untouched: their
// artificial stays basic at zero and can never be selected by a ratio test.
func (t *denseTableau) evictArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.artStart; j++ {
			if math.Abs(ai[j]) > 1e-8 {
				t.pivot(i, j)
				break
			}
		}
	}
}
