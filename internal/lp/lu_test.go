package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// luFactorize factors a copy of the n×n row-major matrix a.
func luFactorize(a []float64, n int) (*luFactor, error) {
	f := &luFactor{}
	if err := f.factorize(append([]float64(nil), a...), n); err != nil {
		return nil, err
	}
	return f, nil
}

// denseLU is the dense LU factorization the sparse luFactor replaced, kept
// as its oracle: P·A = L·U with unit-diagonal L, L (strictly lower) and U
// packed row-major in one n×n array.
type denseLU struct {
	n    int
	lu   []float64
	perm []int
}

func denseFactorize(a []float64, n int) (*denseLU, error) {
	f := &denseLU{n: n, lu: append([]float64(nil), a...), perm: make([]int, n)}
	for i := range f.perm {
		f.perm[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best < 1e-13 {
			return nil, fmt.Errorf("singular (pivot %g at column %d)", best, k)
		}
		if p != k {
			rk, rp := lu[k*n:k*n+n], lu[p*n:p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.perm[k], f.perm[p] = f.perm[p], f.perm[k]
		}
		pivInv := 1 / lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := lu[i*n+k] * pivInv
			if l == 0 {
				continue
			}
			lu[i*n+k] = l
			ri, rk := lu[i*n:i*n+n], lu[k*n:k*n+n]
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	return f, nil
}

func (f *denseLU) solve(b []float64) {
	n, lu := f.n, f.lu
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	for i := 1; i < n; i++ {
		ri := lu[i*n : i*n+n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		ri := lu[i*n : i*n+n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	copy(b, x)
}

func (f *denseLU) solveT(b []float64) {
	n, lu := f.n, f.lu
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= lu[j*n+i] * b[j]
		}
		b[i] = s / lu[i*n+i]
	}
	for i := n - 2; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= lu[j*n+i] * b[j]
		}
		b[i] = s
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[f.perm[i]] = b[i]
	}
	copy(b, x)
}

// TestLUSparseMatchesDense factors random sparse matrices — entries from
// {0, ±0.5, ±1, ±2} over a row-permuted unit diagonal, so rows swap and
// pivot magnitudes tie exactly — with both factorizations and requires the
// same pivot order and solves equal under ==.
func TestLUSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	entries := []float64{0.5, -0.5, 1, -1, 2, -2}
	var sparse luFactor // reused across trials, as the simplex reuses it
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		a := make([]float64, n*n)
		for i, p := range rng.Perm(n) {
			a[i*n+p] = 1
		}
		density := rng.Float64() * 0.3
		for i := range a {
			if rng.Float64() < density {
				a[i] = entries[rng.Intn(len(entries))]
			}
		}
		dense, derr := denseFactorize(a, n)
		serr := sparse.factorize(append([]float64(nil), a...), n)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("trial %d: dense err %v, sparse err %v", trial, derr, serr)
		}
		if derr != nil {
			continue
		}
		for i := range dense.perm {
			if dense.perm[i] != sparse.perm[i] {
				t.Fatalf("trial %d: perm %v, dense %v", trial, sparse.perm, dense.perm)
			}
		}
		for _, transpose := range []bool{false, true} {
			b := make([]float64, n)
			for i := range b {
				if rng.Intn(3) > 0 {
					b[i] = entries[rng.Intn(len(entries))] * float64(1+rng.Intn(9))
				}
			}
			want := append([]float64(nil), b...)
			if transpose {
				sparse.solveT(b)
				dense.solveT(want)
			} else {
				sparse.solve(b)
				dense.solve(want)
			}
			for i := range b {
				if b[i] != want[i] {
					t.Fatalf("trial %d transpose=%v: x[%d] = %g, dense %g", trial, transpose, i, b[i], want[i])
				}
			}
		}
	}
}

func matVec(a []float64, n int, x []float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a[i*n+j] * x[j]
		}
		y[i] = s
	}
	return y
}

func matTVec(a []float64, n int, x []float64) []float64 {
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += a[i*n+j] * x[i]
		}
		y[j] = s
	}
	return y
}

func TestLUSolveKnown(t *testing.T) {
	// A = [[2,1],[1,3]], b = [5, 10] -> x = [1, 3]
	a := []float64{2, 1, 1, 3}
	f, err := luFactorize(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{5, 10}
	f.solve(b)
	if math.Abs(b[0]-1) > 1e-12 || math.Abs(b[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", b)
	}
}

func TestLUSingular(t *testing.T) {
	a := []float64{1, 2, 2, 4}
	if _, err := luFactorize(a, 2); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestLUPermutationNeeded(t *testing.T) {
	// Zero on the first diagonal forces a row swap.
	a := []float64{0, 1, 1, 0}
	f, err := luFactorize(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{3, 7}
	f.solve(b)
	if math.Abs(b[0]-7) > 1e-12 || math.Abs(b[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [7 3]", b)
	}
}

// TestLURoundTrip is a property test: for random well-conditioned matrices,
// solve(A, A·x) recovers x and solveT(A, Aᵀ·x) recovers x.
func TestLURoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		a := make([]float64, n*n)
		for i := range a {
			a[i] = r.NormFloat64()
		}
		// Diagonal dominance keeps the matrix well-conditioned.
		for i := 0; i < n; i++ {
			a[i*n+i] += float64(n) + 1
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		fac, err := luFactorize(a, n)
		if err != nil {
			return false
		}
		b := matVec(a, n, x)
		fac.solve(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
				return false
			}
		}
		bt := matTVec(a, n, x)
		fac.solveT(bt)
		for i := range x {
			if math.Abs(bt[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLUFactorize200(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := luFactorize(a, n); err != nil {
			b.Fatal(err)
		}
	}
}
