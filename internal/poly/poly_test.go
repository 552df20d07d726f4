package poly

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"oic/internal/mat"
)

func box2(t *testing.T, lo0, lo1, hi0, hi1 float64) *Polytope {
	t.Helper()
	return Box([]float64{lo0, lo1}, []float64{hi0, hi1})
}

// randomPoly2D builds a random bounded 2-D polytope as the hull of 3–8
// random points.
func randomPoly2D(t *testing.T, rng *rand.Rand) *Polytope {
	t.Helper()
	k := 3 + rng.Intn(6)
	pts := make([]mat.Vec, k)
	for i := range pts {
		pts[i] = mat.Vec{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	p, err := FromVertices2D(pts)
	if err != nil {
		t.Fatalf("randomPoly2D: %v", err)
	}
	return p
}

func TestBoxContains(t *testing.T) {
	p := box2(t, -1, -2, 3, 4)
	cases := []struct {
		x    mat.Vec
		want bool
	}{
		{mat.Vec{0, 0}, true},
		{mat.Vec{-1, -2}, true}, // corner
		{mat.Vec{3, 4}, true},
		{mat.Vec{3.001, 0}, false},
		{mat.Vec{0, -2.001}, false},
	}
	for _, c := range cases {
		if got := p.Contains(c.x, 1e-9); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestViolation(t *testing.T) {
	p := box2(t, 0, 0, 1, 1)
	if v := p.Violation(mat.Vec{0.5, 0.5}); math.Abs(v-(-0.5)) > 1e-12 {
		t.Errorf("interior violation = %v, want -0.5", v)
	}
	if v := p.Violation(mat.Vec{2, 0.5}); math.Abs(v-1) > 1e-12 {
		t.Errorf("exterior violation = %v, want 1", v)
	}
}

func TestIsEmpty(t *testing.T) {
	p := box2(t, 0, 0, 1, 1)
	if p.IsEmpty() {
		t.Error("unit box reported empty")
	}
	q := Intersect(p, box2(t, 5, 5, 6, 6))
	if !q.IsEmpty() {
		t.Error("disjoint intersection reported nonempty")
	}
}

func TestSupportBox(t *testing.T) {
	p := box2(t, -1, -2, 3, 4)
	cases := []struct {
		d    mat.Vec
		want float64
	}{
		{mat.Vec{1, 0}, 3},
		{mat.Vec{-1, 0}, 1},
		{mat.Vec{0, 1}, 4},
		{mat.Vec{1, 1}, 7},
		{mat.Vec{2, 0}, 6},
	}
	for _, c := range cases {
		h, arg, err := p.Support(c.d)
		if err != nil {
			t.Fatalf("Support(%v): %v", c.d, err)
		}
		if math.Abs(h-c.want) > 1e-8 {
			t.Errorf("Support(%v) = %v, want %v", c.d, h, c.want)
		}
		if math.Abs(c.d.Dot(arg)-h) > 1e-8 {
			t.Errorf("Support(%v): argmax %v does not attain %v", c.d, arg, h)
		}
	}
}

func TestSupportUnboundedAndEmpty(t *testing.T) {
	// Halfplane x0 <= 1 is unbounded in direction (0,1).
	a := mat.FromRows([][]float64{{1, 0}})
	p := New(a, mat.Vec{1})
	if _, _, err := p.Support(mat.Vec{0, 1}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("unbounded support err = %v", err)
	}
	q := Intersect(Box([]float64{0, 0}, []float64{1, 1}), Box([]float64{2, 2}, []float64{3, 3}))
	if _, _, err := q.Support(mat.Vec{1, 0}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty support err = %v", err)
	}
}

func TestChebyshev(t *testing.T) {
	p := box2(t, 0, 0, 4, 2)
	c, r, err := p.Chebyshev()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-8 {
		t.Errorf("radius = %v, want 1", r)
	}
	if math.Abs(c[1]-1) > 1e-8 {
		t.Errorf("center y = %v, want 1", c[1])
	}
	if c[0] < 1-1e-8 || c[0] > 3+1e-8 {
		t.Errorf("center x = %v, want within [1,3]", c[0])
	}
}

func TestTranslate(t *testing.T) {
	p := box2(t, 0, 0, 1, 1)
	q := p.Translate(mat.Vec{10, -5})
	if !q.Contains(mat.Vec{10.5, -4.5}, 1e-9) || q.Contains(mat.Vec{0.5, 0.5}, 1e-9) {
		t.Error("Translate misplaced the box")
	}
}

func TestScale(t *testing.T) {
	p := box2(t, -1, -1, 1, 1)
	q := p.Scale(3)
	h, _, err := q.Support(mat.Vec{1, 0})
	if err != nil || math.Abs(h-3) > 1e-8 {
		t.Errorf("Scale support = %v, %v", h, err)
	}
}

func TestCovers(t *testing.T) {
	outer := box2(t, -2, -2, 2, 2)
	inner := box2(t, -1, -1, 1, 1)
	if ok, err := outer.Covers(inner, 1e-9); err != nil || !ok {
		t.Errorf("outer ⊇ inner: %v %v", ok, err)
	}
	if ok, err := inner.Covers(outer, 1e-9); err != nil || ok {
		t.Errorf("inner ⊉ outer expected: %v %v", ok, err)
	}
}

func TestErodeBox(t *testing.T) {
	p := box2(t, -10, -10, 10, 10)
	w := box2(t, -1, -2, 1, 2)
	e, err := Erode(p, w)
	if err != nil {
		t.Fatal(err)
	}
	want := box2(t, -9, -8, 9, 8)
	mustSameSet(t, e, want)
}

func TestErodeUnboundedOperand(t *testing.T) {
	p := box2(t, -1, -1, 1, 1)
	half := New(mat.FromRows([][]float64{{1, 0}}), mat.Vec{0})
	if _, err := Erode(p, half); err == nil {
		t.Error("expected error eroding by an unbounded set")
	}
}

// (P ⊖ Q) ⊕ Q ⊆ P, and x ∈ P⊖Q ⇒ x + q ∈ P for sampled q.
func TestErodeSumInclusionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		p := randomPoly2D(t, rng)
		q := Box([]float64{-0.2 - rng.Float64()*0.3, -0.2}, []float64{0.2, 0.2 + rng.Float64()*0.3})
		e, err := Erode(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if e.IsEmpty() {
			continue
		}
		s, err := MinkowskiSum(e, q)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := p.Covers(s, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: (P⊖Q)⊕Q ⊄ P", trial)
		}
	}
}

func TestMinkowskiSumBoxes(t *testing.T) {
	p := box2(t, -1, -1, 1, 1)
	q := box2(t, -2, -3, 2, 3)
	s, err := MinkowskiSum(p, q)
	if err != nil {
		t.Fatal(err)
	}
	mustSameSet(t, s, box2(t, -3, -4, 3, 4))
}

func TestMinkowskiSum1D(t *testing.T) {
	p := Box([]float64{-1}, []float64{2})
	q := Box([]float64{-3}, []float64{1})
	s, err := MinkowskiSum(p, q)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := s.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo[0]-(-4)) > 1e-8 || math.Abs(hi[0]-3) > 1e-8 {
		t.Errorf("1-D sum = [%v, %v], want [-4, 3]", lo[0], hi[0])
	}
}

// In 2-D the sum is exact, so support functions must be additive.
func TestMinkowskiSumSupportAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		p := randomPoly2D(t, rng)
		q := randomPoly2D(t, rng)
		s, err := MinkowskiSum(p, q)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			theta := rng.Float64() * 2 * math.Pi
			d := mat.Vec{math.Cos(theta), math.Sin(theta)}
			hp, _, err1 := p.Support(d)
			hq, _, err2 := q.Support(d)
			hs, _, err3 := s.Support(d)
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatal(err1, err2, err3)
			}
			if math.Abs(hs-(hp+hq)) > 1e-6 {
				t.Fatalf("trial %d: h_{P⊕Q}(%v) = %v, want %v", trial, d, hs, hp+hq)
			}
		}
	}
}

func TestMinkowskiSumTemplate3D(t *testing.T) {
	p := Box([]float64{-1, -1, -1}, []float64{1, 1, 1})
	q := Box([]float64{-2, 0, -1}, []float64{2, 1, 0})
	s, err := MinkowskiSum(p, q)
	if err != nil {
		t.Fatal(err)
	}
	// Boxes sum exactly even under the template method.
	want := Box([]float64{-3, -1, -2}, []float64{3, 2, 1})
	mustSameSet(t, s, want)
}

func TestPreimageAffine(t *testing.T) {
	// P = unit box, M doubles x0; preimage must halve the x0 extent.
	p := box2(t, -1, -1, 1, 1)
	m := mat.FromRows([][]float64{{2, 0}, {0, 1}})
	pre := p.PreimageAffine(m, mat.Vec{0, 0})
	mustSameSet(t, pre, box2(t, -0.5, -1, 0.5, 1))
}

func TestPreimageAffineWithOffset(t *testing.T) {
	// {x | x + c ∈ P} = P translated by −c.
	p := box2(t, 0, 0, 2, 2)
	pre := p.PreimageAffine(mat.Identity(2), mat.Vec{1, 1})
	mustSameSet(t, pre, box2(t, -1, -1, 1, 1))
}

func TestImagePreimageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		p := randomPoly2D(t, rng)
		m := mat.FromRows([][]float64{
			{1 + rng.Float64(), 0.3 * rng.NormFloat64()},
			{0.3 * rng.NormFloat64(), 1 + rng.Float64()},
		})
		c := mat.Vec{rng.NormFloat64(), rng.NormFloat64()}
		img, err := p.ImageAffine(m, c)
		if err != nil {
			t.Fatal(err)
		}
		back := img.PreimageAffine(m, c)
		mustSameSet(t, back, p)
	}
}

func TestReduceRedundancy(t *testing.T) {
	// Unit box plus a slack constraint x0 <= 5 and a duplicate x0 <= 1.
	a := mat.FromRows([][]float64{
		{1, 0}, {-1, 0}, {0, 1}, {0, -1},
		{1, 0}, // duplicate
		{1, 0}, // slack (x0 <= 5 after scaling below)
		{0.5, 0.5},
	})
	b := mat.Vec{1, 1, 1, 1, 1, 5, 10}
	p := New(a, b)
	r := p.ReduceRedundancy()
	if r.NumRows() != 4 {
		t.Errorf("reduced rows = %d, want 4", r.NumRows())
	}
	mustSameSet(t, r, p)
}

func TestReduceRedundancyKeepsEmptiness(t *testing.T) {
	// x <= -1 and -x <= -1 (i.e. x >= 1) is empty; reduction must not
	// accidentally turn it feasible.
	a := mat.FromRows([][]float64{{1}, {-1}})
	p := New(a, mat.Vec{-1, -1})
	if !p.ReduceRedundancy().IsEmpty() {
		t.Error("reduction made an empty polytope feasible")
	}
}

func TestBoundingBox(t *testing.T) {
	p, err := FromVertices2D([]mat.Vec{{0, 0}, {2, 0}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := p.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 2, 3}
	got := []float64{lo[0], lo[1], hi[0], hi[1]}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Errorf("BoundingBox[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSample(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, err := FromVertices2D([]mat.Vec{{0, 0}, {4, 0}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := p.Sample(50, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 {
		t.Fatalf("got %d samples", len(pts))
	}
	for _, x := range pts {
		if !p.Contains(x, 1e-9) {
			t.Fatalf("sample %v outside polytope", x)
		}
	}
}

func TestVerticesBox(t *testing.T) {
	p := box2(t, -1, -2, 3, 4)
	vs, err := p.Vertices()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 4 {
		t.Fatalf("got %d vertices, want 4: %v", len(vs), vs)
	}
	for _, want := range []mat.Vec{{-1, -2}, {-1, 4}, {3, -2}, {3, 4}} {
		found := false
		for _, v := range vs {
			if v.Equal(want, 1e-8) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("vertex %v missing", want)
		}
	}
}

func TestVerticesUnbounded(t *testing.T) {
	half := New(mat.FromRows([][]float64{{1, 0}}), mat.Vec{1})
	if _, err := half.Vertices(); err == nil {
		t.Error("expected error for unbounded polytope")
	}
}

func TestVertices3DBox(t *testing.T) {
	p := Box([]float64{0, 0, 0}, []float64{1, 2, 3})
	vs, err := p.Vertices()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 8 {
		t.Errorf("3-D box has %d vertices, want 8", len(vs))
	}
}

func TestConvexHull2D(t *testing.T) {
	pts := []mat.Vec{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.5, 0}}
	hull := ConvexHull2D(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d, want 4: %v", len(hull), hull)
	}
}

func TestConvexHull2DCollinear(t *testing.T) {
	pts := []mat.Vec{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	hull := ConvexHull2D(pts)
	if len(hull) != 2 {
		t.Fatalf("collinear hull size = %d, want 2: %v", len(hull), hull)
	}
}

func TestFromVertices2DSegmentAndPoint(t *testing.T) {
	seg, err := FromVertices2D([]mat.Vec{{0, 0}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Contains(mat.Vec{1, 1}, 1e-9) || seg.Contains(mat.Vec{1, 1.1}, 1e-9) {
		t.Error("segment membership wrong")
	}
	pt, err := FromVertices2D([]mat.Vec{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Contains(mat.Vec{3, 4}, 1e-9) || pt.Contains(mat.Vec{3, 4.2}, 1e-9) {
		t.Error("point membership wrong")
	}
}

func TestVolume2D(t *testing.T) {
	p := box2(t, 0, 0, 2, 3)
	v, err := p.Volume2D()
	if err != nil || math.Abs(v-6) > 1e-8 {
		t.Errorf("Volume2D = %v, %v; want 6", v, err)
	}
	tri, _ := FromVertices2D([]mat.Vec{{0, 0}, {2, 0}, {0, 2}})
	v, err = tri.Volume2D()
	if err != nil || math.Abs(v-2) > 1e-8 {
		t.Errorf("triangle Volume2D = %v, %v; want 2", v, err)
	}
}

func TestEliminateVarBox(t *testing.T) {
	p := Box([]float64{0, 10, -5}, []float64{1, 20, 5})
	q := p.EliminateVar(1) // drop the middle coordinate
	mustSameSet(t, q, Box([]float64{0, -5}, []float64{1, 5}))
}

func TestProjectBox(t *testing.T) {
	p := Box([]float64{0, 10, -5}, []float64{1, 20, 5})
	q := p.Project([]int{2, 0}) // order: (x2, x0)
	mustSameSet(t, q, Box([]float64{-5, 0}, []float64{5, 1}))
}

func TestProjectSimplex(t *testing.T) {
	// Simplex x,y,z >= 0, x+y+z <= 1 projected onto (x,y) is the triangle
	// x,y >= 0, x+y <= 1.
	a := mat.FromRows([][]float64{
		{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}, {1, 1, 1},
	})
	p := New(a, mat.Vec{0, 0, 0, 1})
	q := p.Project([]int{0, 1})
	want := New(mat.FromRows([][]float64{{-1, 0}, {0, -1}, {1, 1}}), mat.Vec{0, 0, 1})
	mustSameSet(t, q, want)
}

// Projection must preserve support functions along kept directions.
func TestProjectSupportConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		// Random bounded 3-D polytope: box ∩ random halfspaces through a
		// neighbourhood of the origin.
		p := Box([]float64{-2, -2, -2}, []float64{2, 2, 2})
		for i := 0; i < 3; i++ {
			row := mat.Vec{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			p = Intersect(p, New(mat.FromRows([][]float64{row}), mat.Vec{0.5 + rng.Float64()}))
		}
		q := p.Project([]int{0, 1})
		for k := 0; k < 6; k++ {
			theta := rng.Float64() * 2 * math.Pi
			d2 := mat.Vec{math.Cos(theta), math.Sin(theta)}
			d3 := mat.Vec{d2[0], d2[1], 0}
			h3, _, err1 := p.Support(d3)
			h2, _, err2 := q.Support(d2)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if math.Abs(h3-h2) > 1e-6 {
				t.Fatalf("trial %d: projection support mismatch %v vs %v", trial, h2, h3)
			}
		}
	}
}

// mustSameSet asserts mutual coverage of two polytopes.
func mustSameSet(t *testing.T, got, want *Polytope) {
	t.Helper()
	ok1, err1 := got.Covers(want, 1e-6)
	ok2, err2 := want.Covers(got, 1e-6)
	if err1 != nil || err2 != nil {
		t.Fatalf("Covers errors: %v, %v", err1, err2)
	}
	if !ok1 || !ok2 {
		t.Fatalf("sets differ:\n got: A=\n%v b=%v\nwant: A=\n%v b=%v", got.A, got.B, want.A, want.B)
	}
}

// refContains is Contains as it ran before its rows were sliced, kept as
// the bit-exact oracle, under the NaN rule: a row holds only when its sum
// compares ≤ (the test draws NaN coefficients).
func refContains(p *Polytope, x mat.Vec, tol float64) bool {
	for i := 0; i < p.A.R; i++ {
		s := 0.0
		for j := 0; j < p.A.C; j++ {
			s += p.A.At(i, j) * x[j]
		}
		if !(s <= p.B[i]+tol) {
			return false
		}
	}
	return true
}

// TestContainsMatchesReference pins the row-sliced Contains to the
// At-indexed loop on random polytopes, with points placed exactly on, and
// one ulp either side of, a row's B[i]+tol boundary — where the sum's
// rounding decides the answer.
func TestContainsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	special := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300}
	for trial := 0; trial < 5000; trial++ {
		r, c := rng.Intn(13), 1+rng.Intn(6)
		a := mat.New(r, c)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			if rng.Intn(40) == 0 {
				a.Data[i] = special[rng.Intn(len(special))]
			}
		}
		x := make(mat.Vec, c)
		for j := range x {
			x[j] = rng.NormFloat64() * 2
		}
		tol := []float64{0, 1e-9, 1e-6}[rng.Intn(3)]
		b := make(mat.Vec, r)
		for i := range b {
			b[i] = rng.NormFloat64() * 3
		}
		p := New(a, b)
		if r > 0 {
			// Put x on row k's boundary: B[k] + tol equals (or straddles by
			// one ulp) the row's sum in its summation order.
			k := rng.Intn(r)
			s := 0.0
			for j := 0; j < c; j++ {
				s += a.At(k, j) * x[j]
			}
			b[k] = s - tol
			switch rng.Intn(3) {
			case 1:
				b[k] = math.Nextafter(b[k], math.Inf(1))
			case 2:
				b[k] = math.Nextafter(b[k], math.Inf(-1))
			}
		}
		if got, want := p.Contains(x, tol), refContains(p, x, tol); got != want {
			t.Fatalf("trial %d: Contains = %v, reference %v (A=%v B=%v x=%v tol=%g)", trial, got, want, a.Data, b, x, tol)
		}
	}
}

// TestContains2MatchesRows pins the 2-D kernel to the generic row loop on
// random 2-D polytopes, with points placed exactly on, and one ulp either
// side of, a row's B[i]+tol boundary, and with non-finite coordinates and
// coefficients.
func TestContains2MatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	special := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300, 1e308}
	draw := func(scale float64) float64 {
		if rng.Intn(30) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * scale
	}
	hits := 0
	for trial := 0; trial < 20000; trial++ {
		r := 1 + rng.Intn(70)
		a := mat.New(r, 2)
		for i := range a.Data {
			a.Data[i] = draw(1)
		}
		x := mat.Vec{draw(2), draw(2)}
		tol := []float64{0, 1e-9, 1e-7}[rng.Intn(3)]
		b := make(mat.Vec, r)
		for i := range b {
			b[i] = 3 + rng.NormFloat64()
		}
		// Put x on one row's boundary, or one ulp either side of it.
		k := rng.Intn(r)
		s := 0.0
		s += a.At(k, 0) * x[0]
		s += a.At(k, 1) * x[1]
		b[k] = s - tol
		switch rng.Intn(3) {
		case 1:
			b[k] = math.Nextafter(b[k], math.Inf(1))
		case 2:
			b[k] = math.Nextafter(b[k], math.Inf(-1))
		}
		p := New(a, b)
		got, want := p.contains2(x[0], x[1], tol), p.containsRows(x, tol)
		if got != want {
			t.Fatalf("trial %d: contains2 = %v, row loop %v (A=%v B=%v x=%v tol=%g)", trial, got, want, a.Data, b, x, tol)
		}
		if got != refContains(p, x, tol) {
			t.Fatalf("trial %d: contains2 = %v, reference %v", trial, got, !got)
		}
		if got {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no trial landed inside its polytope: the boundary placement is not exercised")
	}
}

// TestNonFiniteStateOutside pins the NaN rule: a NaN coordinate fails
// every row it reaches, in 2-D and in the generic loop, and Violation
// reads +Inf for it instead of skipping the row.
func TestNonFiniteStateOutside(t *testing.T) {
	nan := math.NaN()
	for _, p := range []*Polytope{box2(t, -1, -1, 1, 1), Box([]float64{-1, -1, -1}, []float64{1, 1, 1})} {
		x := make(mat.Vec, p.Dim())
		if !p.Contains(x, 0) {
			t.Fatalf("%d-D box does not contain the origin", p.Dim())
		}
		x[0] = nan
		if p.Contains(x, 1e-9) {
			t.Errorf("%d-D box contains %v", p.Dim(), x)
		}
		if v := p.Violation(x); !math.IsInf(v, 1) {
			t.Errorf("%d-D box: Violation(%v) = %v, want +Inf", p.Dim(), x, v)
		}
		x[0] = math.Inf(1)
		if p.Contains(x, 1e-9) {
			t.Errorf("%d-D box contains %v", p.Dim(), x)
		}
	}
}
