// Package poly implements convex polytopes in halfspace representation
// (H-polytopes) together with the set algebra required by robust
// reachability analysis: support functions, intersection, translation,
// Minkowski difference (erosion), Minkowski sum, affine images and
// preimages, Fourier–Motzkin projection, redundancy removal, Chebyshev
// centers, and vertex enumeration.
//
// A Polytope is the set {x ∈ Rⁿ | A·x ≤ B}. All operations are exact in
// H-representation except MinkowskiSum in dimension ≥ 3, which falls back
// to a tight template-based outer approximation (documented on the method).
package poly

import (
	"errors"
	"fmt"
	"math"

	"oic/internal/lp"
	"oic/internal/mat"
)

// Polytope is the convex set {x | A·x ≤ B}.
type Polytope struct {
	A *mat.Mat
	B mat.Vec
}

// ErrUnbounded is returned when an operation requires a bounded polytope or
// a bounded support value.
var ErrUnbounded = errors.New("poly: polytope is unbounded in a required direction")

// ErrEmpty is returned when an operation requires a nonempty polytope.
var ErrEmpty = errors.New("poly: polytope is empty")

// New returns the polytope {x | A·x ≤ b}. The arguments are retained.
func New(a *mat.Mat, b mat.Vec) *Polytope {
	if a.R != len(b) {
		panic(fmt.Sprintf("poly: New: %d rows vs %d offsets", a.R, len(b)))
	}
	return &Polytope{A: a, B: b}
}

// Box returns the axis-aligned box Π [lo_i, hi_i] as a polytope.
func Box(lo, hi []float64) *Polytope {
	if len(lo) != len(hi) {
		panic("poly: Box: bound length mismatch")
	}
	n := len(lo)
	a := mat.New(2*n, n)
	b := make(mat.Vec, 2*n)
	for i := 0; i < n; i++ {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("poly: Box: lo[%d]=%g > hi[%d]=%g", i, lo[i], i, hi[i]))
		}
		a.Set(2*i, i, 1)
		b[2*i] = hi[i]
		a.Set(2*i+1, i, -1)
		b[2*i+1] = -lo[i]
	}
	return New(a, b)
}

// Dim returns the ambient dimension.
func (p *Polytope) Dim() int { return p.A.C }

// NumRows returns the number of halfspace constraints.
func (p *Polytope) NumRows() int { return p.A.R }

// Clone returns a deep copy.
func (p *Polytope) Clone() *Polytope {
	return &Polytope{A: p.A.Clone(), B: p.B.Clone()}
}

// Contains reports whether A·x ≤ B + tol holds row-wise. A row holds
// only when its sum compares ≤: a NaN sum (a NaN or infinite coordinate
// meeting a coefficient that makes it so) fails the row, so a non-finite
// state is never inside a set.
func (p *Polytope) Contains(x mat.Vec, tol float64) bool {
	if len(x) != p.Dim() {
		panic(fmt.Sprintf("poly: Contains: point dim %d vs polytope dim %d", len(x), p.Dim()))
	}
	if p.A.C == 2 {
		return p.contains2(x[0], x[1], tol)
	}
	return p.containsRows(x, tol)
}

// containsRows is Contains for any dimension: each row's sum runs over
// its columns in order.
func (p *Polytope) containsRows(x mat.Vec, tol float64) bool {
	c := p.A.C
	for i, b := range p.B[:p.A.R] {
		row := p.A.Data[i*c : (i+1)*c]
		x := x[:len(row)] // same length as row: no bounds check in the loop
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		if !(s <= b+tol) {
			return false
		}
	}
	return true
}

// contains2 is containsRows unrolled for a 2-D polytope: the same
// operations in the same order, so every verdict is the generic loop's.
func (p *Polytope) contains2(x0, x1, tol float64) bool {
	a := p.A.Data[:2*p.A.R]
	for _, b := range p.B[:p.A.R] {
		s := 0.0
		s += a[0] * x0
		s += a[1] * x1
		if !(s <= b+tol) {
			return false
		}
		a = a[2:]
	}
	return true
}

// Violation returns the largest constraint violation A_i·x − B_i (negative
// when x is strictly inside every halfspace), and +Inf when a row's
// violation is NaN, so a non-finite state never reads as inside.
func (p *Polytope) Violation(x mat.Vec) float64 {
	worst := math.Inf(-1)
	for i := 0; i < p.A.R; i++ {
		s := 0.0
		for j := 0; j < p.A.C; j++ {
			s += p.A.At(i, j) * x[j]
		}
		v := s - p.B[i]
		if v != v {
			return math.Inf(1)
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

// feasibilityLP builds the LP "find x with A·x ≤ B" with a zero objective.
func (p *Polytope) feasibilityLP() *lp.Problem {
	prob := lp.NewProblem(p.Dim())
	for i := 0; i < p.A.R; i++ {
		// AddConstraint copies, so the no-copy row view is safe here.
		prob.AddConstraint(p.A.RowView(i), lp.LE, p.B[i])
	}
	return prob
}

// IsEmpty reports whether the polytope has no points.
func (p *Polytope) IsEmpty() bool {
	if p.A.R == 0 {
		return false // whole space
	}
	return p.feasibilityLP().Solve().Status == lp.Infeasible
}

// Support returns the support function h(d) = max{d·x | x ∈ P} and a
// maximizing point. It returns ErrUnbounded when the maximum is +∞ and
// ErrEmpty when P is empty.
func (p *Polytope) Support(d mat.Vec) (float64, mat.Vec, error) {
	h, x, err := p.supports().at(d)
	return h, append(mat.Vec(nil), x...), err
}

// supports answers support queries over one polytope: its feasibility LP
// is compiled and its phase 1 run once (lp.Objectives), and each
// direction runs only its own phase 2, with the bits of a fresh solve.
// Every support query in this package goes through one.
type supports struct {
	o   *lp.Objectives
	neg []float64
}

func (p *Polytope) supports() *supports {
	return &supports{o: lp.NewObjectives(p.feasibilityLP()), neg: make([]float64, p.Dim())}
}

// at returns h(d) and a maximizing point, which aliases the solver's
// buffer until the next query, as Support does.
func (s *supports) at(d mat.Vec) (float64, []float64, error) {
	if len(d) != len(s.neg) {
		panic(fmt.Sprintf("poly: Support: direction dim %d vs polytope dim %d", len(d), len(s.neg)))
	}
	for i, v := range d {
		s.neg[i] = -v
	}
	sol := s.o.Solve(s.neg)
	switch sol.Status {
	case lp.Optimal:
		return -sol.Objective, sol.X, nil
	case lp.Unbounded:
		return math.Inf(1), nil, ErrUnbounded
	case lp.Infeasible:
		return math.Inf(-1), nil, ErrEmpty
	}
	return 0, nil, fmt.Errorf("poly: Support: solver status %v", sol.Status)
}

// Chebyshev returns the Chebyshev center (the center of the largest
// inscribed ball) and its radius. A negative radius cannot occur; an empty
// polytope yields ErrEmpty, an unbounded one ErrUnbounded.
func (p *Polytope) Chebyshev() (mat.Vec, float64, error) {
	n := p.Dim()
	// Variables: x (n) and r; maximize r subject to A_i·x + ‖A_i‖r ≤ B_i.
	prob := lp.NewProblem(n + 1)
	obj := make([]float64, n+1)
	obj[n] = -1
	prob.SetObjective(obj)
	prob.SetBounds(n, 0, math.Inf(1))
	for i := 0; i < p.A.R; i++ {
		row := make([]float64, n+1)
		norm := 0.0
		for j := 0; j < n; j++ {
			v := p.A.At(i, j)
			row[j] = v
			norm += v * v
		}
		row[n] = math.Sqrt(norm)
		prob.AddConstraint(row, lp.LE, p.B[i])
	}
	sol := prob.Solve()
	switch sol.Status {
	case lp.Optimal:
		return mat.Vec(sol.X[:n]), sol.X[n], nil
	case lp.Infeasible:
		return nil, 0, ErrEmpty
	case lp.Unbounded:
		return nil, 0, ErrUnbounded
	}
	return nil, 0, fmt.Errorf("poly: Chebyshev: solver status %v", sol.Status)
}

// Intersect returns P ∩ Q by stacking constraint rows.
func Intersect(p, q *Polytope) *Polytope {
	if p.Dim() != q.Dim() {
		panic(fmt.Sprintf("poly: Intersect: dims %d vs %d", p.Dim(), q.Dim()))
	}
	a := mat.New(p.A.R+q.A.R, p.Dim())
	copy(a.Data[:p.A.R*p.Dim()], p.A.Data)
	copy(a.Data[p.A.R*p.Dim():], q.A.Data)
	b := make(mat.Vec, 0, len(p.B)+len(q.B))
	b = append(b, p.B...)
	b = append(b, q.B...)
	return New(a, b)
}

// Translate returns P + t = {x + t | x ∈ P}.
func (p *Polytope) Translate(t mat.Vec) *Polytope {
	if len(t) != p.Dim() {
		panic("poly: Translate: dimension mismatch")
	}
	b := p.B.Clone()
	for i := 0; i < p.A.R; i++ {
		s := 0.0
		for j := 0; j < p.A.C; j++ {
			s += p.A.At(i, j) * t[j]
		}
		b[i] += s
	}
	return &Polytope{A: p.A.Clone(), B: b}
}

// Scale returns α·P for α > 0.
func (p *Polytope) Scale(alpha float64) *Polytope {
	if alpha <= 0 {
		panic("poly: Scale: alpha must be positive")
	}
	return &Polytope{A: p.A.Clone(), B: p.B.Scale(alpha)}
}

// Covers reports whether P ⊇ Q within tolerance tol, by checking that the
// support of Q along every row normal of P stays below the row offset.
// Q must be nonempty and bounded along P's normals.
func (p *Polytope) Covers(q *Polytope, tol float64) (bool, error) {
	if p.Dim() != q.Dim() {
		panic("poly: Covers: dimension mismatch")
	}
	sq := q.supports()
	for i := 0; i < p.A.R; i++ {
		h, _, err := sq.at(p.A.RowView(i))
		if err != nil {
			return false, err
		}
		if h > p.B[i]+tol {
			return false, nil
		}
	}
	return true, nil
}
