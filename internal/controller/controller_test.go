package controller

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/poly"
)

func TestAffineFeedback(t *testing.T) {
	k := mat.FromRows([][]float64{{-1, -2}})
	f := NewAffineFeedback(k, mat.Vec{1, 0}, mat.Vec{5})
	u, err := f.Compute(mat.Vec{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// u = K(x − xref) + uref = (-1)(1) + (-2)(3) + 5 = -2.
	if !u.Equal(mat.Vec{-2}, 1e-12) {
		t.Errorf("u = %v, want [-2]", u)
	}
	if f.Name() == "" {
		t.Error("empty name")
	}
}

func TestAffineFeedbackNilRefs(t *testing.T) {
	k := mat.FromRows([][]float64{{-1, 0}})
	f := NewAffineFeedback(k, nil, nil)
	u, _ := f.Compute(mat.Vec{3, 1})
	if !u.Equal(mat.Vec{-3}, 1e-12) {
		t.Errorf("u = %v", u)
	}
}

// TestAffineFeedbackComputeOneAlloc pins Compute at one allocation (the
// returned input) and bit-identical to the allocating vector pipeline it
// replaced, for state dimensions on both sides of its stack buffer.
func TestAffineFeedbackComputeOneAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, nx := range []int{1, 2, 7, 8, 9, 13} {
		for nu := 1; nu <= 5; nu++ {
			k := mat.New(nu, nx)
			for i := range k.Data {
				k.Data[i] = rng.NormFloat64()
			}
			xref, uref, x := make(mat.Vec, nx), make(mat.Vec, nu), make(mat.Vec, nx)
			for i := range xref {
				xref[i], x[i] = rng.NormFloat64()*50, rng.NormFloat64()*50
			}
			for i := range uref {
				uref[i] = rng.NormFloat64() * 10
			}
			f := NewAffineFeedback(k, xref, uref)
			u, _ := f.Compute(x)
			want := f.K.MulVec(x.Sub(f.XRef)).Add(f.URef)
			for i := range want {
				if math.Float64bits(u[i]) != math.Float64bits(want[i]) {
					t.Fatalf("nx=%d nu=%d: u[%d] = %v, pipeline %v", nx, nu, i, u[i], want[i])
				}
			}
			if nx > 8 {
				continue // the heap-buffer path allocates dx too
			}
			if allocs := testing.AllocsPerRun(100, func() { f.Compute(x) }); allocs != 1 {
				t.Fatalf("nx=%d nu=%d: Compute allocates %v times, want 1", nx, nu, allocs)
			}
		}
	}
}

func TestEquilibriumInputACC(t *testing.T) {
	sys := accSystem()
	u, err := EquilibriumInput(sys, mat.Vec{150, 40}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// At v = 40 the drag term kv = 8 must be cancelled.
	if math.Abs(u[0]-8) > 1e-9 {
		t.Errorf("equilibrium input = %v, want 8", u[0])
	}
	// The equilibrium must be a fixed point of the drift dynamics.
	next := sys.Step(mat.Vec{150, 40}, u, nil)
	if !next.Equal(mat.Vec{150, 40}, 1e-9) {
		t.Errorf("equilibrium not fixed: %v", next)
	}
}

func TestEquilibriumInputNoSolution(t *testing.T) {
	// x⁺ = x + [1;0]·u: the second state cannot be held anywhere except
	// where its drift vanishes; ask for an impossible equilibrium.
	a := mat.FromRows([][]float64{{1, 0}, {0, 2}})
	b := mat.FromRows([][]float64{{1}, {0}})
	sys := lti.NewSystem(a, b)
	if _, err := EquilibriumInput(sys, mat.Vec{1, 1}, 0); err == nil {
		t.Error("expected error for unreachable equilibrium")
	}
}

func TestLQRStabilizes(t *testing.T) {
	a := mat.FromRows([][]float64{{1, 0.1}, {0, 1}})
	b := mat.FromRows([][]float64{{0}, {0.1}})
	k, err := LQR(a, b, mat.Identity(2), mat.Identity(1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	acl := a.Add(b.Mul(k))
	if rho := SpectralRadius(acl, 128); rho >= 1 {
		t.Errorf("closed loop unstable: spectral radius %v", rho)
	}
}

func TestLQRScalarKnownSolution(t *testing.T) {
	// Scalar: a=1, b=1, q=1, r=1. DARE: p = 1 + p − p²/(1+p) ⇒ p² − p − 1 = 0
	// ⇒ p = φ ≈ 1.618; k = −p/(1+p) ≈ −0.618.
	a := mat.FromRows([][]float64{{1}})
	b := mat.FromRows([][]float64{{1}})
	k, err := LQR(a, b, mat.Identity(1), mat.Identity(1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	phi := (1 + math.Sqrt(5)) / 2
	want := -phi / (1 + phi)
	if math.Abs(k.At(0, 0)-want) > 1e-6 {
		t.Errorf("k = %v, want %v", k.At(0, 0), want)
	}
}

func TestSpectralRadius(t *testing.T) {
	m := mat.FromRows([][]float64{{0.5, 0}, {0, 0.25}})
	if rho := SpectralRadius(m, 64); math.Abs(rho-0.5) > 1e-6 {
		t.Errorf("rho = %v, want 0.5", rho)
	}
	r := mat.FromRows([][]float64{{0, 1}, {-1, 0}}) // rotation: rho = 1
	if rho := SpectralRadius(r, 64); math.Abs(rho-1) > 1e-6 {
		t.Errorf("rotation rho = %v, want 1", rho)
	}
}

// accSystem builds the paper's ACC model in physical coordinates:
//
//	s⁺ = s − δ(v − v_f) = s − δv + δ·40 + w₁,  w₁ = δ(v_f − 40) ∈ [−1, 1]
//	v⁺ = (1 − kδ)v + δu
//
// with X = [120,180]×[25,55], U = [−40,40], δ = 0.1, k = 0.2.
func accSystem() *lti.System {
	const delta, drag = 0.1, 0.2
	a := mat.FromRows([][]float64{{1, -delta}, {0, 1 - drag*delta}})
	b := mat.FromRows([][]float64{{0}, {delta}})
	return lti.NewSystem(a, b).
		WithDrift(mat.Vec{delta * 40, 0}).
		WithConstraints(
			poly.Box([]float64{120, 25}, []float64{180, 55}),
			poly.Box([]float64{-40}, []float64{40}),
			poly.Box([]float64{-1, 0}, []float64{1, 0}),
		)
}

func accRMPC(t *testing.T) *RMPC {
	t.Helper()
	sys := accSystem()
	r, err := NewRMPC(sys, RMPCConfig{
		Horizon:     10,
		StateWeight: 1,
		InputWeight: 1,
		XRef:        mat.Vec{150, 40},
		URef:        mat.Vec{8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRMPCConstruction(t *testing.T) {
	r := accRMPC(t)
	if got := len(r.TightenedSets()); got != 11 {
		t.Fatalf("tightened sets = %d, want 11", got)
	}
	// X(k) must be nested decreasing.
	for k := 1; k <= 10; k++ {
		ok, err := r.TightenedSets()[k-1].Covers(r.TightenedSets()[k], 1e-7)
		if err != nil || !ok {
			t.Errorf("X(%d) ⊄ X(%d): %v %v", k, k-1, ok, err)
		}
	}
	// Terminal set inside X(N).
	ok, err := r.TightenedSets()[10].Covers(r.TerminalSet(), 1e-7)
	if err != nil || !ok {
		t.Errorf("Xt ⊄ X(N): %v %v", ok, err)
	}
}

func TestRMPCComputeAtEquilibrium(t *testing.T) {
	r := accRMPC(t)
	u, err := r.Compute(mat.Vec{150, 40})
	if err != nil {
		t.Fatal(err)
	}
	// At the reference the cheapest plan is to hold the equilibrium input.
	if math.Abs(u[0]-8) > 0.5 {
		t.Errorf("u at equilibrium = %v, want ≈ 8", u[0])
	}
}

func TestRMPCSequenceLengthAndBounds(t *testing.T) {
	r := accRMPC(t)
	seq, err := r.ComputeSequence(mat.Vec{140, 45})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 10 {
		t.Fatalf("sequence length = %d", len(seq))
	}
	for k, u := range seq {
		if u[0] < -40-1e-6 || u[0] > 40+1e-6 {
			t.Errorf("u(%d) = %v outside U", k, u[0])
		}
	}
}

func TestRMPCInfeasibleOutsideX(t *testing.T) {
	r := accRMPC(t)
	if _, err := r.Compute(mat.Vec{200, 40}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// TestRMPCKeepsSystemSafe runs the closed loop under worst-case-ish random
// disturbances from several feasible starting states and asserts the state
// never leaves X. This is the "κ is a safe controller" premise of the paper.
func TestRMPCKeepsSystemSafe(t *testing.T) {
	r := accRMPC(t)
	sys := accSystem()
	feas, err := r.FeasibleSet()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	starts, err := feas.Sample(8, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	for _, x0 := range starts {
		x := x0.Clone()
		for step := 0; step < 60; step++ {
			u, err := r.Compute(x)
			if err != nil {
				t.Fatalf("RMPC infeasible at %v (step %d from %v): %v", x, step, x0, err)
			}
			// Adversarial-ish disturbance: extreme values of W.
			w := mat.Vec{1, 0}
			if rng.Float64() < 0.5 {
				w[0] = -1
			}
			x = sys.Step(x, u, w)
			if !sys.X.Contains(x, 1e-6) {
				t.Fatalf("state %v left X at step %d from %v", x, step, x0)
			}
		}
	}
}

// TestRMPCFeasibleSetIsRCI exercises Proposition 1: from any sampled state
// in the feasible region, applying the RMPC keeps the successor inside the
// region for extreme disturbances.
func TestRMPCFeasibleSetIsRCI(t *testing.T) {
	r := accRMPC(t)
	sys := accSystem()
	feas, err := r.FeasibleSet()
	if err != nil {
		t.Fatal(err)
	}
	if feas.IsEmpty() {
		t.Fatal("feasible set empty")
	}
	rng := rand.New(rand.NewSource(37))
	pts, err := feas.Sample(25, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range pts {
		u, err := r.Compute(x)
		if err != nil {
			t.Fatalf("infeasible inside feasible set at %v: %v", x, err)
		}
		for _, w1 := range []float64{-1, 1} {
			next := sys.Step(x, u, mat.Vec{w1, 0})
			if !feas.Contains(next, 1e-5) {
				t.Fatalf("successor %v of %v (w=%v) left the feasible set", next, x, w1)
			}
		}
	}
}

func TestRMPCRejectsBadConfig(t *testing.T) {
	sys := accSystem()
	if _, err := NewRMPC(sys, RMPCConfig{Horizon: 0}); err == nil {
		t.Error("horizon 0 accepted")
	}
	bare := lti.NewSystem(sys.A, sys.B)
	if _, err := NewRMPC(bare, RMPCConfig{Horizon: 5}); err == nil {
		t.Error("missing constraint sets accepted")
	}
}
