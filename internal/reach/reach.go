// Package reach implements the set-based robust reachability computations
// the paper's safety argument rests on (Section III-A):
//
//   - robust Pre operators for autonomous and controlled affine systems;
//   - maximal robust (control) invariant sets by fixpoint iteration;
//   - the Rakovic et al. outer approximation of the minimal robust
//     positively invariant set, matching the paper's formula
//     XI = α(W ⊕ A_K W ⊕ … ⊕ A_K^n W) for linear feedback;
//   - one-step robust backward reachable sets B(Y, z) (Definition 2);
//   - the strengthened safe set X′ = B(XI, 0) ∩ XI (Definition 3).
//
// All computations are exact in H-representation; no matrix inversion is
// required (see DESIGN.md §5.2).
package reach

import (
	"errors"
	"fmt"

	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/poly"
)

// ErrNoConvergence is returned when a fixpoint iteration hits its iteration
// budget before converging.
var ErrNoConvergence = errors.New("reach: fixpoint iteration did not converge")

// ErrEmptyResult is returned when a computed invariant set is empty, i.e.
// the constraints admit no robust invariant region.
var ErrEmptyResult = errors.New("reach: computed set is empty")

// PreAutonomous returns the robust one-step predecessor set of target under
// the autonomous affine dynamics x⁺ = acl·x + ccl + w:
//
//	Pre(S) = {x | ∀w ∈ W: acl·x + ccl + w ∈ S} = preimage(S ⊖ W).
//
// A nil W means no disturbance.
func PreAutonomous(target *poly.Polytope, acl *mat.Mat, ccl mat.Vec, w *poly.Polytope) (*poly.Polytope, error) {
	shrunk := target
	if w != nil {
		var err error
		shrunk, err = poly.Erode(target, w)
		if err != nil {
			return nil, fmt.Errorf("reach: PreAutonomous: %w", err)
		}
	}
	return shrunk.PreimageAffine(acl, ccl), nil
}

// PreControlled returns the robust one-step predecessor set of target under
// the controlled dynamics of sys:
//
//	Pre(S) = {x | ∃u ∈ U, ∀w ∈ W: A·x + B·u + c + w ∈ S},
//
// computed by building the joint (x, u) constraint polytope and projecting
// out the input coordinates with Fourier–Motzkin elimination. sys.U must be
// set; a nil sys.W means no disturbance.
func PreControlled(target *poly.Polytope, sys *lti.System) (*poly.Polytope, error) {
	if sys.U == nil {
		return nil, errors.New("reach: PreControlled: system has no input set U")
	}
	shrunk := target
	if sys.W != nil {
		var err error
		shrunk, err = poly.Erode(target, sys.W)
		if err != nil {
			return nil, fmt.Errorf("reach: PreControlled: %w", err)
		}
	}
	nx, nu := sys.NX(), sys.NU()
	// Joint rows: [H_S·A  H_S·B]·(x,u) ≤ h_S − H_S·c  and  [0  H_U]·(x,u) ≤ h_U.
	ha := shrunk.A.Mul(sys.A)
	hb := shrunk.A.Mul(sys.B)
	rows := shrunk.A.R + sys.U.A.R
	a := mat.New(rows, nx+nu)
	b := make(mat.Vec, rows)
	for i := 0; i < shrunk.A.R; i++ {
		for j := 0; j < nx; j++ {
			a.Set(i, j, ha.At(i, j))
		}
		for j := 0; j < nu; j++ {
			a.Set(i, nx+j, hb.At(i, j))
		}
		b[i] = shrunk.B[i] - shrunk.A.Row(i).Dot(sys.C)
	}
	for i := 0; i < sys.U.A.R; i++ {
		for j := 0; j < nu; j++ {
			a.Set(shrunk.A.R+i, nx+j, sys.U.A.At(i, j))
		}
		b[shrunk.A.R+i] = sys.U.B[i]
	}
	joint := poly.New(a, b)
	keep := make([]int, nx)
	for j := range keep {
		keep[j] = j
	}
	return joint.Project(keep), nil
}

// The fixpoint iterations of MaximalInvariantSet and MaximalRCI stop
// when an iterate covers its predecessor within fixpointTol (the slack
// poly.Covers allows on each of the iterate's constraint rows), and give
// up with ErrNoConvergence after maxFixpointIter iterations.
const (
	maxFixpointIter = 100
	fixpointTol     = 1e-7
)

// MaximalInvariantSet returns the maximal robust positively invariant set
// contained in safe for the autonomous affine dynamics x⁺ = acl·x + ccl + w,
// by iterating S ← S ∩ Pre(S) to convergence. This is the robust invariant
// set XI of a fixed feedback controller (Definition 1 with κ substituted).
func MaximalInvariantSet(safe *poly.Polytope, acl *mat.Mat, ccl mat.Vec, w *poly.Polytope) (*poly.Polytope, error) {
	s := safe.ReduceRedundancy()
	for iter := 0; iter < maxFixpointIter; iter++ {
		pre, err := PreAutonomous(s, acl, ccl, w)
		if err != nil {
			return nil, err
		}
		next := poly.Intersect(s, pre).ReduceRedundancy()
		if next.IsEmpty() {
			return nil, ErrEmptyResult
		}
		done, err := next.Covers(s, fixpointTol)
		if err != nil {
			return nil, err
		}
		if done { // next ⊇ s and next ⊆ s by construction ⇒ fixpoint
			return next, nil
		}
		s = next
	}
	return nil, ErrNoConvergence
}

// MaximalRCI returns the maximal robust control invariant set contained in
// sys.X: the largest set of states from which *some* admissible input keeps
// the state inside the set for every disturbance. It iterates
// S ← S ∩ PreControlled(S) to convergence.
func MaximalRCI(sys *lti.System) (*poly.Polytope, error) {
	if sys.X == nil {
		return nil, errors.New("reach: MaximalRCI: system has no safe set X")
	}
	s := sys.X.ReduceRedundancy()
	for iter := 0; iter < maxFixpointIter; iter++ {
		pre, err := PreControlled(s, sys)
		if err != nil {
			return nil, err
		}
		next := poly.Intersect(s, pre).ReduceRedundancy()
		if next.IsEmpty() {
			return nil, ErrEmptyResult
		}
		done, err := next.Covers(s, fixpointTol)
		if err != nil {
			return nil, err
		}
		if done {
			return next, nil
		}
		s = next
	}
	return nil, ErrNoConvergence
}

// MRPI computes the Rakovic et al. (2005) outer approximation of the
// minimal robust positively invariant set of the stable autonomous system
// x⁺ = acl·x + w, w ∈ W:
//
//	F(α, s) = (1 − α)⁻¹ · (W ⊕ acl·W ⊕ … ⊕ acl^{s−1}·W),
//
// where α is the smallest factor with acl^s·W ⊆ α·W. This is the paper's
// "XI = α(W ⊕ (A+BK)W ⊕ … ⊕ (A+BK)ⁿW)" computation for linear feedback.
// s is increased until α ≤ alphaMax (or maxS is hit). acl must be strictly
// stable; W must contain the origin (flat directions are permitted, e.g.
// the ACC's W = [−1,1]×{0}).
func MRPI(acl *mat.Mat, w *poly.Polytope, alphaMax float64, maxS int) (*poly.Polytope, error) {
	if alphaMax <= 0 || alphaMax >= 1 {
		return nil, fmt.Errorf("reach: MRPI: alphaMax %v outside (0,1)", alphaMax)
	}
	if maxS <= 0 {
		maxS = 50
	}
	n := acl.R

	// Rakovic's α-condition acl^s·W ⊆ α·W is unattainable when W is flat in
	// some direction and the dynamics rotate it. Inflate W by a tiny box in
	// that case: the result is RPI for the inflated set and therefore also
	// for the original W (invariance is monotone in the disturbance set).
	flat := false
	for i := range w.B {
		if w.B[i] <= 1e-12 {
			flat = true
			break
		}
	}
	if flat {
		lo, hi, err := w.BoundingBox()
		if err != nil {
			return nil, fmt.Errorf("reach: MRPI: %w", err)
		}
		scale := 1.0
		for j := range lo {
			if e := hi[j] - lo[j]; e > scale {
				scale = e
			}
		}
		eps := 1e-6 * scale
		epsLo := make([]float64, n)
		epsHi := make([]float64, n)
		for j := range epsLo {
			epsLo[j], epsHi[j] = -eps, eps
		}
		inflated, err := poly.MinkowskiSum(w, poly.Box(epsLo, epsHi))
		if err != nil {
			return nil, fmt.Errorf("reach: MRPI: inflating flat W: %w", err)
		}
		w = inflated.ReduceRedundancy()
	}

	for s := 1; s <= maxS; s++ {
		// α(s) = max_i h_W((acl^s)ᵀ·f_i) / g_i over rows f_i·x ≤ g_i of W.
		as := mat.Pow(acl, s)
		ast := as.T()
		alpha := 0.0
		feasible := true
		for i := 0; i < w.A.R; i++ {
			h, _, err := w.Support(ast.MulVec(w.A.Row(i)))
			if err != nil {
				return nil, err
			}
			if w.B[i] <= 1e-12 {
				// Degenerate face (W is flat in this direction, e.g. the
				// ACC's W = [−1,1]×{0}): inclusion needs h ≤ 0 outright.
				if h > 1e-9 {
					feasible = false
					break
				}
				continue
			}
			if a := h / w.B[i]; a > alpha {
				alpha = a
			}
		}
		if !feasible || alpha > alphaMax {
			continue
		}
		// F_s = ⊕_{i<s} acl^i·W, then scale by 1/(1−α).
		sum := w.Clone()
		for i := 1; i < s; i++ {
			img, err := w.ImageAffine(mat.Pow(acl, i), make(mat.Vec, n))
			if err != nil {
				return nil, fmt.Errorf("reach: MRPI: acl^%d singular: %w", i, err)
			}
			sum, err = poly.MinkowskiSum(sum, img)
			if err != nil {
				return nil, err
			}
		}
		return sum.Scale(1 / (1 - alpha)).ReduceRedundancy(), nil
	}
	return nil, fmt.Errorf("reach: MRPI: alpha did not reach %v within s ≤ %d (is acl stable?)", alphaMax, maxS)
}

// Backward returns the one-step robust backward reachable set B(Y, z) of
// Definition 2 for the skip branch z = 0 (zero input):
//
//	B(Y, 0) = {x | ∀w ∈ W: A·x + c + w ∈ Y}.
//
// This is the set the strengthened safe set construction needs. For the
// z = 1 branch under an affine feedback use BackwardControlled.
func Backward(target *poly.Polytope, sys *lti.System) (*poly.Polytope, error) {
	return PreAutonomous(target, sys.A, sys.C, sys.W)
}

// BackwardControlled returns B(Y, 1) for an affine feedback
// u = K·(x − xref) + uref (Definition 2 with κ substituted).
func BackwardControlled(target *poly.Polytope, sys *lti.System, k *mat.Mat, xref, uref mat.Vec) (*poly.Polytope, error) {
	acl, ccl := sys.ClosedLoop(k, xref, uref)
	return PreAutonomous(target, acl, ccl, sys.W)
}

// StrengthenedSafeSet returns X′ = B(XI, 0) ∩ XI (Definition 3): the states
// from which even a skipped control (u = 0) robustly lands back inside XI.
func StrengthenedSafeSet(xi *poly.Polytope, sys *lti.System) (*poly.Polytope, error) {
	b0, err := Backward(xi, sys)
	if err != nil {
		return nil, fmt.Errorf("reach: StrengthenedSafeSet: %w", err)
	}
	return poly.Intersect(b0, xi).ReduceRedundancy(), nil
}
