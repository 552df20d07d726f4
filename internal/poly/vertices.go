package poly

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"oic/internal/mat"
)

// ErrTooLarge is returned by Vertices when the combinatorial enumeration
// budget would be exceeded.
var ErrTooLarge = errors.New("poly: vertex enumeration budget exceeded")

// maxVertexSubsets caps the number of row subsets Vertices will inspect.
const maxVertexSubsets = 2_000_000

// Vertices enumerates the vertices of a bounded polytope by intersecting
// every subset of n constraint rows and keeping the feasible intersection
// points. Runtime is C(m, n); suitable for the low-dimensional polytopes in
// this repository (the ACC state space is 2-D).
func (p *Polytope) Vertices() ([]mat.Vec, error) {
	n := p.Dim()
	m := p.A.R
	if n == 0 {
		return nil, errors.New("poly: Vertices: zero-dimensional polytope")
	}
	if m < n {
		return nil, ErrUnbounded
	}
	if binomialExceeds(m, n, maxVertexSubsets) {
		return nil, fmt.Errorf("%w: C(%d,%d) subsets", ErrTooLarge, m, n)
	}

	var verts []mat.Vec
	idx := make([]int, n)
	a := mat.New(n, n)
	b := make(mat.Vec, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			for r, ri := range idx {
				for j := 0; j < n; j++ {
					a.Set(r, j, p.A.At(ri, j))
				}
				b[r] = p.B[ri]
			}
			x, err := mat.Solve(a, b)
			if err != nil {
				return // rows not independent
			}
			if !p.Contains(x, 1e-7) {
				return
			}
			for _, v := range verts {
				if v.Equal(x, 1e-7) {
					return
				}
			}
			verts = append(verts, x)
			return
		}
		for i := start; i < m; i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return verts, nil
}

func binomialExceeds(m, n, cap int) bool {
	c := 1.0
	for i := 0; i < n; i++ {
		c *= float64(m-i) / float64(i+1)
		if c > float64(cap) {
			return true
		}
	}
	return false
}

// FromVertices2D returns the H-representation of the convex hull of the
// given 2-D points (Andrew's monotone chain). At least one point is
// required; collinear and duplicate inputs are handled.
func FromVertices2D(points []mat.Vec) (*Polytope, error) {
	if len(points) == 0 {
		return nil, ErrEmpty
	}
	for _, p := range points {
		if len(p) != 2 {
			panic("poly: FromVertices2D: points must be 2-D")
		}
	}
	hull := ConvexHull2D(points)
	switch len(hull) {
	case 1:
		return Box(hull[0], hull[0]), nil
	case 2:
		// A segment: two halfspaces along the segment normal plus two caps.
		d := hull[1].Sub(hull[0])
		nrm := mat.Vec{-d[1], d[0]}
		a := mat.New(4, 2)
		b := make(mat.Vec, 4)
		a.Set(0, 0, nrm[0])
		a.Set(0, 1, nrm[1])
		b[0] = nrm.Dot(hull[0])
		a.Set(1, 0, -nrm[0])
		a.Set(1, 1, -nrm[1])
		b[1] = -nrm.Dot(hull[0])
		a.Set(2, 0, d[0])
		a.Set(2, 1, d[1])
		b[2] = d.Dot(hull[1])
		a.Set(3, 0, -d[0])
		a.Set(3, 1, -d[1])
		b[3] = -d.Dot(hull[0])
		return New(a, b), nil
	}
	// For each hull edge (counterclockwise), the outward normal halfspace.
	a := mat.New(len(hull), 2)
	b := make(mat.Vec, len(hull))
	for i := range hull {
		p0 := hull[i]
		p1 := hull[(i+1)%len(hull)]
		d := p1.Sub(p0)
		nrm := mat.Vec{d[1], -d[0]} // outward for a CCW hull
		ln := nrm.Norm2()
		nrm = nrm.Scale(1 / ln)
		a.Set(i, 0, nrm[0])
		a.Set(i, 1, nrm[1])
		b[i] = nrm.Dot(p0)
	}
	return New(a, b), nil
}

// ConvexHull2D returns the convex hull of the points in counterclockwise
// order without repetition (Andrew's monotone chain algorithm). Collinear
// interior points are dropped.
func ConvexHull2D(points []mat.Vec) []mat.Vec {
	pts := make([]mat.Vec, len(points))
	copy(pts, points)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i][0] != pts[j][0] {
			return pts[i][0] < pts[j][0]
		}
		return pts[i][1] < pts[j][1]
	})
	// Dedupe.
	uniq := pts[:0]
	for _, p := range pts {
		if len(uniq) == 0 || !uniq[len(uniq)-1].Equal(p, 1e-12) {
			uniq = append(uniq, p)
		}
	}
	pts = uniq
	if len(pts) <= 2 {
		out := make([]mat.Vec, len(pts))
		copy(out, pts)
		return out
	}

	cross := func(o, a, b mat.Vec) float64 {
		return (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])
	}
	var lower, upper []mat.Vec
	for _, p := range pts {
		for len(lower) >= 2 && cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 1e-12 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(pts) - 1; i >= 0; i-- {
		p := pts[i]
		for len(upper) >= 2 && cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 1e-12 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	if len(hull) == 0 { // fully collinear input collapsed; fall back to extremes
		return []mat.Vec{pts[0], pts[len(pts)-1]}
	}
	return hull
}

// Volume2D returns the area of a bounded 2-D polytope via the shoelace
// formula over its hull vertices.
func (p *Polytope) Volume2D() (float64, error) {
	if p.Dim() != 2 {
		return 0, errors.New("poly: Volume2D: polytope is not 2-D")
	}
	verts, err := p.Vertices()
	if err != nil {
		return 0, err
	}
	if len(verts) < 3 {
		return 0, nil
	}
	hull := ConvexHull2D(verts)
	area := 0.0
	for i := range hull {
		j := (i + 1) % len(hull)
		area += hull[i][0]*hull[j][1] - hull[j][0]*hull[i][1]
	}
	return math.Abs(area) / 2, nil
}
