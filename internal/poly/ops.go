package poly

import (
	"fmt"

	"oic/internal/lp"
	"oic/internal/mat"
)

// Erode returns the Minkowski difference P ⊖ Q = {x | x + Q ⊆ P}, computed
// exactly in H-representation by tightening every row offset by the support
// of Q along the row normal:
//
//	P ⊖ Q = {x | A_i·x ≤ B_i − h_Q(A_i)}.
//
// Q must be bounded along the row normals of P.
func Erode(p, q *Polytope) (*Polytope, error) {
	if p.Dim() != q.Dim() {
		panic(fmt.Sprintf("poly: Erode: dims %d vs %d", p.Dim(), q.Dim()))
	}
	b := make(mat.Vec, p.A.R)
	sq := q.supports()
	for i := 0; i < p.A.R; i++ {
		h, _, err := sq.at(p.A.RowView(i))
		if err != nil {
			return nil, fmt.Errorf("poly: Erode: row %d: %w", i, err)
		}
		b[i] = p.B[i] - h
	}
	return &Polytope{A: p.A.Clone(), B: b}, nil
}

// ErodeMapped returns P ⊖ (M·Q) = {x | A_i·x ≤ B_i − h_Q(Mᵀ·A_i)}, the
// Minkowski difference of P by the linear image M·Q, computed without
// forming the image (and hence without inverting M).
func ErodeMapped(p *Polytope, m *mat.Mat, q *Polytope) (*Polytope, error) {
	if m.C != q.Dim() || m.R != p.Dim() {
		panic(fmt.Sprintf("poly: ErodeMapped: map is %dx%d for P dim %d, Q dim %d", m.R, m.C, p.Dim(), q.Dim()))
	}
	mt := m.T()
	b := make(mat.Vec, p.A.R)
	sq := q.supports()
	for i := 0; i < p.A.R; i++ {
		h, _, err := sq.at(mt.MulVec(p.A.RowView(i)))
		if err != nil {
			return nil, fmt.Errorf("poly: ErodeMapped: row %d: %w", i, err)
		}
		b[i] = p.B[i] - h
	}
	return &Polytope{A: p.A.Clone(), B: b}, nil
}

// PreimageAffine returns {x | M·x + c ∈ P} = {x | (A·M)·x ≤ B − A·c}.
// M must map into P's ambient space; no invertibility is required, which is
// how this repository computes robust backward reachable sets without the
// paper's A⁻¹ (see DESIGN.md §5.2).
func (p *Polytope) PreimageAffine(m *mat.Mat, c mat.Vec) *Polytope {
	if m.R != p.Dim() {
		panic(fmt.Sprintf("poly: PreimageAffine: map rows %d vs polytope dim %d", m.R, p.Dim()))
	}
	if len(c) != p.Dim() {
		panic("poly: PreimageAffine: offset dimension mismatch")
	}
	a := p.A.Mul(m)
	b := p.B.Sub(p.A.MulVec(c))
	return New(a, b)
}

// ImageAffine returns the exact image M·P + c for an invertible matrix M:
// {M·x + c | x ∈ P} = {y | (A·M⁻¹)·y ≤ B + A·M⁻¹·c}.
func (p *Polytope) ImageAffine(m *mat.Mat, c mat.Vec) (*Polytope, error) {
	if m.R != m.C || m.C != p.Dim() {
		panic("poly: ImageAffine: matrix must be square with the polytope's dimension")
	}
	inv, err := mat.Inverse(m)
	if err != nil {
		return nil, fmt.Errorf("poly: ImageAffine: %w", err)
	}
	a := p.A.Mul(inv)
	b := p.B.Add(a.MulVec(c))
	return New(a, b), nil
}

// MinkowskiSum returns P ⊕ Q = {x + y | x ∈ P, y ∈ Q}.
//
// In dimension ≤ 2 the result is exact: the vertices of both operands are
// enumerated, summed pairwise, and the convex hull is converted back to
// H-representation. In higher dimension the result is a tight outer
// approximation on the template formed by the row normals of both operands
// (exact along every template direction, h_{P⊕Q}(d) = h_P(d) + h_Q(d)).
// Both operands must be bounded and nonempty.
func MinkowskiSum(p, q *Polytope) (*Polytope, error) {
	if p.Dim() != q.Dim() {
		panic(fmt.Sprintf("poly: MinkowskiSum: dims %d vs %d", p.Dim(), q.Dim()))
	}
	if p.Dim() == 1 {
		return minkowskiSum1D(p, q)
	}
	if p.Dim() == 2 {
		return minkowskiSum2D(p, q)
	}
	return minkowskiSumTemplate(p, q)
}

func minkowskiSum1D(p, q *Polytope) (*Polytope, error) {
	sp := p.supports()
	hiP, _, err := sp.at(mat.Vec{1})
	if err != nil {
		return nil, err
	}
	loP, _, err := sp.at(mat.Vec{-1})
	if err != nil {
		return nil, err
	}
	sq := q.supports()
	hiQ, _, err := sq.at(mat.Vec{1})
	if err != nil {
		return nil, err
	}
	loQ, _, err := sq.at(mat.Vec{-1})
	if err != nil {
		return nil, err
	}
	return Box([]float64{-(loP + loQ)}, []float64{hiP + hiQ}), nil
}

func minkowskiSum2D(p, q *Polytope) (*Polytope, error) {
	vp, err := p.Vertices()
	if err != nil {
		return nil, fmt.Errorf("poly: MinkowskiSum: left operand: %w", err)
	}
	vq, err := q.Vertices()
	if err != nil {
		return nil, fmt.Errorf("poly: MinkowskiSum: right operand: %w", err)
	}
	if len(vp) == 0 || len(vq) == 0 {
		return nil, ErrEmpty
	}
	sums := make([]mat.Vec, 0, len(vp)*len(vq))
	for _, a := range vp {
		for _, b := range vq {
			sums = append(sums, a.Add(b))
		}
	}
	return FromVertices2D(sums)
}

func minkowskiSumTemplate(p, q *Polytope) (*Polytope, error) {
	n := p.Dim()
	// Template: all row normals of both operands plus signed axes.
	dirs := make([]mat.Vec, 0, p.A.R+q.A.R+2*n)
	for i := 0; i < p.A.R; i++ {
		dirs = append(dirs, p.A.Row(i))
	}
	for i := 0; i < q.A.R; i++ {
		dirs = append(dirs, q.A.Row(i))
	}
	for j := 0; j < n; j++ {
		e := make(mat.Vec, n)
		e[j] = 1
		dirs = append(dirs, e)
		e2 := make(mat.Vec, n)
		e2[j] = -1
		dirs = append(dirs, e2)
	}
	a := mat.New(len(dirs), n)
	b := make(mat.Vec, len(dirs))
	sp, sq := p.supports(), q.supports()
	for i, d := range dirs {
		hp, _, err := sp.at(d)
		if err != nil {
			return nil, err
		}
		hq, _, err := sq.at(d)
		if err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			a.Set(i, j, d[j])
		}
		b[i] = hp + hq
	}
	return New(a, b), nil
}

// ReduceRedundancy returns an equivalent polytope with redundant rows
// removed: row i is dropped only when its LP, maximizing A_i·x subject to
// all remaining rows inside a ±1e9 box, returns Optimal and proves it
// redundant (the maximum does not exceed B_i). A row whose LP ends in any
// other status is kept, so the result can keep redundant rows: the box
// shifts every variable by 1e9, which puts about half of each LP's rows
// below zero, and phase 1's 1e-7 infeasibility test then meets rounding
// at the 1e9 scale and reports many of these LPs Infeasible. A kept
// redundant row cuts nothing, so the set is still exact. Duplicate and
// trivially slack rows are removed first. The polytope itself is not
// modified.
func (p *Polytope) ReduceRedundancy() *Polytope {
	type rowT struct {
		a   mat.Vec
		b   float64
		del bool
	}
	rows := make([]rowT, p.A.R)
	for i := range rows {
		rows[i] = rowT{a: p.A.Row(i), b: p.B[i]}
	}

	// Normalize rows for duplicate detection and numerics.
	for i := range rows {
		n := rows[i].a.Norm2()
		if n < 1e-12 {
			// 0·x ≤ b: vacuous when b ≥ 0; keep (it encodes emptiness) when b < 0.
			rows[i].del = rows[i].b >= 0
			continue
		}
		rows[i].a = rows[i].a.Scale(1 / n)
		rows[i].b /= n
	}
	// Drop duplicates, keeping the tightest offset per direction.
	for i := range rows {
		if rows[i].del {
			continue
		}
		for j := i + 1; j < len(rows); j++ {
			if rows[j].del {
				continue
			}
			if rows[i].a.Equal(rows[j].a, 1e-10) {
				if rows[j].b < rows[i].b {
					rows[i].b = rows[j].b
				}
				rows[j].del = true
			}
		}
	}

	// LP-based pass: a row is redundant iff it cannot be violated subject to
	// the others. The feasible region is boxed loosely so directions that
	// are unconstrained by the remaining rows read as "can be violated"
	// (hence not redundant) instead of erroring on unboundedness.
	const big = 1e9
	for i := range rows {
		if rows[i].del {
			continue
		}
		prob := lp.NewProblem(p.Dim())
		for j, r := range rows {
			if r.del || j == i {
				continue
			}
			prob.AddConstraint(r.a, lp.LE, r.b)
		}
		for j := 0; j < p.Dim(); j++ {
			prob.SetBounds(j, -big, big)
		}
		prob.SetObjective(rows[i].a.Scale(-1)) // maximize A_i·x
		sol := prob.Solve()
		if sol.Status == lp.Optimal && -sol.Objective <= rows[i].b+1e-9 {
			rows[i].del = true
		}
	}

	kept := 0
	for i := range rows {
		if !rows[i].del {
			kept++
		}
	}
	a := mat.New(kept, p.Dim())
	b := make(mat.Vec, kept)
	k := 0
	for i := range rows {
		if rows[i].del {
			continue
		}
		for j := 0; j < p.Dim(); j++ {
			a.Set(k, j, rows[i].a[j])
		}
		b[k] = rows[i].b
		k++
	}
	return New(a, b)
}

// BoundingBox returns the tightest axis-aligned box containing P.
func (p *Polytope) BoundingBox() (lo, hi []float64, err error) {
	n := p.Dim()
	lo = make([]float64, n)
	hi = make([]float64, n)
	d := make(mat.Vec, n)
	sp := p.supports()
	for j := 0; j < n; j++ {
		d[j] = 1
		h, _, err := sp.at(d)
		if err != nil {
			return nil, nil, err
		}
		hi[j] = h
		d[j] = -1
		h, _, err = sp.at(d)
		if err != nil {
			return nil, nil, err
		}
		lo[j] = -h
		d[j] = 0
	}
	return lo, hi, nil
}

// Sample returns k points inside P by hit-and-run style rejection from its
// bounding box, using the provided uniform source in [0,1). It returns
// fewer than k points only if acceptance is pathologically low.
func (p *Polytope) Sample(k int, unif func() float64) ([]mat.Vec, error) {
	lo, hi, err := p.BoundingBox()
	if err != nil {
		return nil, err
	}
	var out []mat.Vec
	attempts := 0
	maxAttempts := 10000 * k
	n := p.Dim()
	for len(out) < k && attempts < maxAttempts {
		attempts++
		x := make(mat.Vec, n)
		for j := 0; j < n; j++ {
			x[j] = lo[j] + unif()*(hi[j]-lo[j])
		}
		if p.Contains(x, 1e-12) {
			out = append(out, x)
		}
	}
	return out, nil
}
