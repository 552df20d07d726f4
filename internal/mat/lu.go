package mat

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular to working precision.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial pivoting: P·A = L·U, stored
// compactly in lu (unit lower triangle implicit).
type LU struct {
	lu  *Mat
	piv []int
}

// Factor computes the LU factorization of the square matrix a.
func Factor(a *Mat) (*LU, error) {
	if a.R != a.C {
		return nil, errors.New("mat: Factor: matrix not square")
	}
	n := a.R
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude entry in column k.
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > max {
				p, max = i, a
			}
		}
		if max < 1e-13 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[k*n+j] = lu.Data[k*n+j], lu.Data[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-m*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve returns x with A·x = b.
func (f *LU) Solve(b Vec) Vec {
	n := f.lu.R
	mustSameLen(len(b), n, "LU.Solve")
	x := make(Vec, n)
	// Apply the permutation, then forward substitution (L has unit diagonal).
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x
}

// Solve returns x with a·x = b, factoring a on the fly.
func Solve(a *Mat, b Vec) (Vec, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Inverse returns a⁻¹.
func Inverse(a *Mat) (*Mat, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	n := a.R
	inv := New(n, n)
	e := make(Vec, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col := f.Solve(e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
		e[j] = 0
	}
	return inv, nil
}
