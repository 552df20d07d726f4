package reach

import (
	"math"
	"math/rand"
	"testing"

	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/poly"
)

// scalarSystem builds x⁺ = x + u + w with X = [-1,1], U = [-umax, umax],
// W = [-wmax, wmax].
func scalarSystem(umax, wmax float64) *lti.System {
	a := mat.FromRows([][]float64{{1}})
	b := mat.FromRows([][]float64{{1}})
	return lti.NewSystem(a, b).WithConstraints(
		poly.Box([]float64{-1}, []float64{1}),
		poly.Box([]float64{-umax}, []float64{umax}),
		poly.Box([]float64{-wmax}, []float64{wmax}),
	)
}

func TestPreAutonomousScalar(t *testing.T) {
	// x⁺ = 0.5x + w, target [-1,1], W = [-0.2, 0.2]:
	// Pre = {x | 0.5x ∈ [-0.8, 0.8]} = [-1.6, 1.6].
	target := poly.Box([]float64{-1}, []float64{1})
	w := poly.Box([]float64{-0.2}, []float64{0.2})
	acl := mat.FromRows([][]float64{{0.5}})
	pre, err := PreAutonomous(target, acl, mat.Vec{0}, w)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := pre.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo[0]+1.6) > 1e-8 || math.Abs(hi[0]-1.6) > 1e-8 {
		t.Errorf("Pre = [%v, %v], want [-1.6, 1.6]", lo[0], hi[0])
	}
}

func TestPreAutonomousWithDrift(t *testing.T) {
	// x⁺ = x + 0.3 (no disturbance), target [0,1] ⇒ Pre = [-0.3, 0.7].
	target := poly.Box([]float64{0}, []float64{1})
	acl := mat.FromRows([][]float64{{1}})
	pre, err := PreAutonomous(target, acl, mat.Vec{0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := pre.BoundingBox()
	if math.Abs(lo[0]+0.3) > 1e-8 || math.Abs(hi[0]-0.7) > 1e-8 {
		t.Errorf("Pre = [%v, %v], want [-0.3, 0.7]", lo[0], hi[0])
	}
}

func TestPreControlledScalar(t *testing.T) {
	// x⁺ = x + u + w, target [-1,1], U=[-0.5,0.5], W=[-0.1,0.1]:
	// Pre = {x | ∃u: x+u ∈ [-0.9,0.9]} = [-1.4, 1.4].
	sys := scalarSystem(0.5, 0.1)
	pre, err := PreControlled(poly.Box([]float64{-1}, []float64{1}), sys)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := pre.BoundingBox()
	if math.Abs(lo[0]+1.4) > 1e-8 || math.Abs(hi[0]-1.4) > 1e-8 {
		t.Errorf("Pre = [%v, %v], want [-1.4, 1.4]", lo[0], hi[0])
	}
}

func TestMaximalRCIScalar(t *testing.T) {
	// With U=[-0.5,0.5] ⊃ W=[-0.1,0.1], the whole X=[-1,1] is control
	// invariant.
	sys := scalarSystem(0.5, 0.1)
	xi, err := MaximalRCI(sys)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := xi.BoundingBox()
	if math.Abs(lo[0]+1) > 1e-7 || math.Abs(hi[0]-1) > 1e-7 {
		t.Errorf("RCI = [%v, %v], want [-1, 1]", lo[0], hi[0])
	}
}

func TestMaximalRCIShrinks(t *testing.T) {
	// x⁺ = 2x + u + w with small authority: the invariant core is smaller
	// than X. For |x| ≤ r to be invariant: 2r − umax + wmax ≤ r, i.e.
	// r ≤ umax − wmax = 0.4.
	a := mat.FromRows([][]float64{{2}})
	b := mat.FromRows([][]float64{{1}})
	sys := lti.NewSystem(a, b).WithConstraints(
		poly.Box([]float64{-1}, []float64{1}),
		poly.Box([]float64{-0.5}, []float64{0.5}),
		poly.Box([]float64{-0.1}, []float64{0.1}),
	)
	xi, err := MaximalRCI(sys)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := xi.BoundingBox()
	if math.Abs(lo[0]+0.4) > 1e-6 || math.Abs(hi[0]-0.4) > 1e-6 {
		t.Errorf("RCI = [%v, %v], want [-0.4, 0.4]", lo[0], hi[0])
	}
}

func TestMaximalRCIEmpty(t *testing.T) {
	// Disturbance overwhelms the input: no invariant set inside X.
	a := mat.FromRows([][]float64{{3}})
	b := mat.FromRows([][]float64{{1}})
	sys := lti.NewSystem(a, b).WithConstraints(
		poly.Box([]float64{-1}, []float64{1}),
		poly.Box([]float64{-0.1}, []float64{0.1}),
		poly.Box([]float64{-0.5}, []float64{0.5}),
	)
	if _, err := MaximalRCI(sys); err == nil {
		t.Error("expected empty/no-convergence error")
	}
}

func doubleIntegratorClosedLoop() (*lti.System, *mat.Mat, mat.Vec) {
	a := mat.FromRows([][]float64{{1, 0.1}, {0, 1}})
	b := mat.FromRows([][]float64{{0}, {0.1}})
	sys := lti.NewSystem(a, b).WithConstraints(
		poly.Box([]float64{-5, -5}, []float64{5, 5}),
		poly.Box([]float64{-10}, []float64{10}),
		poly.Box([]float64{-0.05, -0.05}, []float64{0.05, 0.05}),
	)
	k := mat.FromRows([][]float64{{-2, -3}}) // stabilizing gain
	acl, ccl := sys.ClosedLoop(k, mat.Vec{0, 0}, mat.Vec{0})
	return sys, acl, ccl
}

func TestMaximalInvariantSetIsInvariant(t *testing.T) {
	sys, acl, ccl := doubleIntegratorClosedLoop()
	inv, err := MaximalInvariantSet(sys.X, acl, ccl, sys.W)
	if err != nil {
		t.Fatal(err)
	}
	if inv.IsEmpty() {
		t.Fatal("invariant set empty")
	}
	// Property: sampled x ∈ inv stepped with extreme disturbances stays in inv.
	rng := rand.New(rand.NewSource(17))
	pts, err := inv.Sample(60, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	wVerts, err := sys.W.Vertices()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range pts {
		for _, w := range wVerts {
			next := acl.MulVec(x).Add(ccl).Add(w)
			if !inv.Contains(next, 1e-6) {
				t.Fatalf("invariance violated: x=%v w=%v next=%v", x, w, next)
			}
		}
	}
}

func TestMRPIIsInvariant(t *testing.T) {
	_, acl, _ := doubleIntegratorClosedLoop()
	w := poly.Box([]float64{-0.05, -0.05}, []float64{0.05, 0.05})
	f, err := MRPI(acl, w, 0.2, 100)
	if err != nil {
		t.Fatal(err)
	}
	// RPI property: acl·F ⊕ W ⊆ F.
	img, err := f.ImageAffine(acl, mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := poly.MinkowskiSum(img, w)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := f.Covers(sum, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("MRPI set is not robustly invariant")
	}
}

func TestMRPIDegenerateW(t *testing.T) {
	// Disturbance flat in the second coordinate, like the ACC model.
	_, acl, _ := doubleIntegratorClosedLoop()
	w := poly.Box([]float64{-0.05, 0}, []float64{0.05, 0})
	f, err := MRPI(acl, w, 0.5, 200)
	if err != nil {
		t.Fatal(err)
	}
	img, err := f.ImageAffine(acl, mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := poly.MinkowskiSum(img, w)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := f.Covers(sum, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("MRPI with degenerate W not invariant")
	}
}

func TestBackwardMatchesInverseFormula(t *testing.T) {
	// DESIGN.md §5.2: B(Y,0) computed via preimage must equal A⁻¹(Y ⊖ W)
	// when A is invertible.
	a := mat.FromRows([][]float64{{1, -0.1}, {0, 0.98}})
	b := mat.FromRows([][]float64{{0}, {0.1}})
	w := poly.Box([]float64{-1, 0}, []float64{1, 0})
	sys := lti.NewSystem(a, b).WithConstraints(nil, nil, w)
	y := poly.Box([]float64{-30, -15}, []float64{30, 15})

	viaPreimage, err := Backward(y, sys)
	if err != nil {
		t.Fatal(err)
	}

	eroded, err := poly.Erode(y, w)
	if err != nil {
		t.Fatal(err)
	}
	ainv, err := mat.Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	viaInverse, err := eroded.ImageAffine(ainv, mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}

	ok1, err1 := viaPreimage.Covers(viaInverse, 1e-6)
	ok2, err2 := viaInverse.Covers(viaPreimage, 1e-6)
	if err1 != nil || err2 != nil || !ok1 || !ok2 {
		t.Errorf("preimage and inverse formulas disagree: %v %v %v %v", ok1, ok2, err1, err2)
	}
}

func TestStrengthenedSafeSetNesting(t *testing.T) {
	// Scalar system: XI = [-1,1]; X′ = B(XI,0) ∩ XI = [-0.9, 0.9].
	sys := scalarSystem(0.5, 0.1)
	xi, err := MaximalRCI(sys)
	if err != nil {
		t.Fatal(err)
	}
	xp, err := StrengthenedSafeSet(xi, sys)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := xp.BoundingBox()
	if math.Abs(lo[0]+0.9) > 1e-6 || math.Abs(hi[0]-0.9) > 1e-6 {
		t.Errorf("X' = [%v, %v], want [-0.9, 0.9]", lo[0], hi[0])
	}
	// Nesting X′ ⊆ XI ⊆ X.
	if ok, _ := xi.Covers(xp, 1e-7); !ok {
		t.Error("X' ⊄ XI")
	}
	if ok, _ := sys.X.Covers(xi, 1e-7); !ok {
		t.Error("XI ⊄ X")
	}
}

// TestStrengthenedSafeSetSkipProperty verifies Definition 3 semantically:
// from any sampled x ∈ X′, a zero input under any vertex disturbance lands
// inside XI.
func TestStrengthenedSafeSetSkipProperty(t *testing.T) {
	sys, acl, ccl := doubleIntegratorClosedLoop()
	inv, err := MaximalInvariantSet(sys.X, acl, ccl, sys.W)
	if err != nil {
		t.Fatal(err)
	}
	xp, err := StrengthenedSafeSet(inv, sys)
	if err != nil {
		t.Fatal(err)
	}
	if xp.IsEmpty() {
		t.Skip("strengthened set empty for this gain; nothing to sample")
	}
	rng := rand.New(rand.NewSource(23))
	pts, err := xp.Sample(40, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	wVerts, err := sys.W.Vertices()
	if err != nil {
		t.Fatal(err)
	}
	zero := make(mat.Vec, sys.NU())
	for _, x := range pts {
		for _, w := range wVerts {
			next := sys.Step(x, zero, w)
			if !inv.Contains(next, 1e-6) {
				t.Fatalf("skip from x=%v with w=%v leaves XI: %v", x, w, next)
			}
		}
	}
}
