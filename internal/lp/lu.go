package lp

import (
	"fmt"
	"math"
)

// luFactor is an LU factorization with partial pivoting, P·A = L·U with
// unit-diagonal L, that backs the revised simplex basis. The factors are kept
// sparse: L by columns, U by rows (off-diagonal entries in ascending index
// order) and U's diagonal apart. Buffers are reused across factorizations.
type luFactor struct {
	n    int
	perm []int     // perm[i] = original row index selected as the i-th pivot
	diag []float64 // U's diagonal

	// Column k of L is lIdx/lVal[lStart[k]:lStart[k+1]]; row k of U is
	// uIdx/uVal[uStart[k]:uStart[k+1]].
	lStart, uStart []int32
	lIdx, uIdx     []int32
	lVal, uVal     []float64

	rows []int32   // elimination scratch: rows with a nonzero in the pivot column
	work []float64 // solve scratch, length n
}

// resize returns s with length n, reallocating only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// factorize factors the n×n row-major matrix a, which it overwrites. It
// returns an error when the matrix is numerically singular.
//
// Elimination is dense Gaussian elimination with partial pivoting — the first
// row of largest magnitude, the same multipliers and update order — except
// that it skips the terms whose pivot-row entry is zero. Every factor entry
// therefore equals the dense elimination's bit for bit, up to the sign of a
// zero, and the sparse solves below keep the dense loops' per-element order.
func (f *luFactor) factorize(a []float64, n int) error {
	f.n = n
	f.perm = resize(f.perm, n)
	for i := range f.perm {
		f.perm[i] = i
	}
	f.diag, f.work = resize(f.diag, n), resize(f.work, n)
	f.lStart, f.uStart = resize(f.lStart, n+1), resize(f.uStart, n+1)
	f.lIdx, f.lVal, f.uIdx, f.uVal = f.lIdx[:0], f.lVal[:0], f.uIdx[:0], f.uVal[:0]
	for k := 0; k < n; k++ {
		// Partial pivoting: largest magnitude in column k at or below
		// the diagonal. Rows with a zero there need no elimination.
		p, best := k, math.Abs(a[k*n+k])
		f.rows = f.rows[:0]
		for i := k + 1; i < n; i++ {
			if v := a[i*n+k]; v != 0 {
				f.rows = append(f.rows, int32(i))
				if v := math.Abs(v); v > best {
					p, best = i, v
				}
			}
		}
		if best < 1e-13 {
			return fmt.Errorf("lp: singular basis (pivot %g at column %d)", best, k)
		}
		rk := a[k*n : k*n+n]
		if p != k {
			rp := a[p*n : p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.perm[k], f.perm[p] = f.perm[p], f.perm[k]
		}
		// Row k is final: it is U's row k, and its nonzeros are the only
		// columns the rows below need updating in.
		f.diag[k], f.uStart[k] = rk[k], int32(len(f.uIdx))
		for j := k + 1; j < n; j++ {
			if v := rk[j]; v != 0 {
				f.uIdx, f.uVal = append(f.uIdx, int32(j)), append(f.uVal, v)
			}
		}
		uIdx, uVal := f.uIdx[f.uStart[k]:], f.uVal[f.uStart[k]:]
		pivInv := 1 / rk[k]
		for _, i := range f.rows {
			l := a[int(i)*n+k] * pivInv
			if l == 0 {
				continue // also the old pivot row, if it moved to p with a zero
			}
			a[int(i)*n+k] = l
			ri := a[int(i)*n : int(i)*n+n]
			for t, j := range uIdx {
				ri[j] -= l * uVal[t]
			}
		}
	}
	f.uStart[n] = int32(len(f.uIdx))
	for k := 0; k < n; k++ {
		f.lStart[k] = int32(len(f.lIdx))
		for i := k + 1; i < n; i++ {
			if v := a[i*n+k]; v != 0 {
				f.lIdx, f.lVal = append(f.lIdx, int32(i)), append(f.lVal, v)
			}
		}
	}
	f.lStart[n] = int32(len(f.lIdx))
	return nil
}

// solve overwrites b (length n) with the solution of A·x = b.
//
//sblint:hotpath
func (f *luFactor) solve(b []float64) {
	n, x := f.n, f.work
	// Apply the row permutation: x = P·b.
	for i, p := range f.perm {
		x[i] = b[p]
	}
	// Forward substitution with unit-diagonal L, column by column: x[j] is
	// final once the columns before it are applied, and each x[i] takes its
	// updates in ascending j, as a row-by-row loop would.
	for j := 0; j < n; j++ {
		if xj := x[j]; xj != 0 {
			for k := f.lStart[j]; k < f.lStart[j+1]; k++ {
				x[f.lIdx[k]] -= f.lVal[k] * xj
			}
		}
	}
	// Back substitution with U, row by row.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := f.uStart[i]; k < f.uStart[i+1]; k++ {
			s -= f.uVal[k] * x[f.uIdx[k]]
		}
		x[i] = s / f.diag[i]
	}
	copy(b, x)
}

// solveT overwrites b (length n) with the solution of Aᵀ·x = b.
// Since P·A = L·U, Aᵀ = Uᵀ·Lᵀ·P, so we solve Uᵀy = b, Lᵀw = y, x = Pᵀw.
//
//sblint:hotpath
func (f *luFactor) solveT(b []float64) {
	n, x := f.n, f.work
	// Uᵀ is lower triangular: forward substitution, row of U by row, each
	// b[i] taking its updates in ascending order before its division.
	for i := 0; i < n; i++ {
		bi := b[i] / f.diag[i]
		b[i] = bi
		if bi != 0 {
			for k := f.uStart[i]; k < f.uStart[i+1]; k++ {
				b[f.uIdx[k]] -= f.uVal[k] * bi
			}
		}
	}
	// Lᵀ is unit upper triangular: back substitution, column of L by column.
	for i := n - 2; i >= 0; i-- {
		s := b[i]
		for k := f.lStart[i]; k < f.lStart[i+1]; k++ {
			s -= f.lVal[k] * b[f.lIdx[k]]
		}
		b[i] = s
	}
	// x = Pᵀ·w: scatter through the permutation.
	for i, p := range f.perm {
		x[p] = b[i]
	}
	copy(b, x)
}
