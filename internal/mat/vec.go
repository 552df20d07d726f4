// Package mat provides the small dense linear-algebra kernel used throughout
// the repository: vectors, row-major matrices, LU factorization with partial
// pivoting, inversion, and matrix powers.
//
// The package is deliberately minimal — the control and set computations in
// this repository work with systems of a handful of dimensions, so a simple,
// allocation-light dense implementation is both sufficient and easy to audit.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Vec is a dense column vector.
type Vec []float64

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Add returns v + u.
func (v Vec) Add(u Vec) Vec {
	mustSameLen(len(v), len(u), "Vec.Add")
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + u[i]
	}
	return out
}

// Sub returns v - u.
func (v Vec) Sub(u Vec) Vec {
	mustSameLen(len(v), len(u), "Vec.Sub")
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - u[i]
	}
	return out
}

// Scale returns a*v.
func (v Vec) Scale(a float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = a * v[i]
	}
	return out
}

// Dot returns the inner product of v and u.
func (v Vec) Dot(u Vec) float64 {
	mustSameLen(len(v), len(u), "Vec.Dot")
	s := 0.0
	for i := range v {
		s += v[i] * u[i]
	}
	return s
}

// Norm1 returns the 1-norm (sum of absolute values). The paper uses the
// 1-norm of the input as the per-step actuation energy cost.
func (v Vec) Norm1() float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Norm2 returns the Euclidean norm.
func (v Vec) Norm2() float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute entry.
func (v Vec) NormInf() float64 {
	s := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// Equal reports whether v and u agree entrywise within tol.
func (v Vec) Equal(u Vec, tol float64) bool {
	if len(v) != len(u) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-u[i]) > tol {
			return false
		}
	}
	return true
}

// BitsEqual reports whether a and b hold the same float64s, bit for bit
// (IEEE-754 patterns): the exact-replay check of recovery, migration and
// artifact restore, which admits no tolerance because the stack is
// deterministic.
func BitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// String renders the vector as "[x0 x1 ...]" with short float formatting.
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.6g", x)
	}
	b.WriteByte(']')
	return b.String()
}

func mustSameLen(a, b int, op string) {
	if a != b {
		panic(fmt.Sprintf("mat: %s: dimension mismatch %d vs %d", op, a, b))
	}
}
