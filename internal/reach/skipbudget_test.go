package reach

import (
	"math/rand"
	"testing"

	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/poly"
)

// budgetRig builds the scalar system x⁺ = 0.9x + w with X = [-1,1],
// W = [-wmax, wmax] and returns its maximal invariant set under zero input
// as XI, so the S_k chain is nontrivial but exactly analyzable.
func budgetRig(t *testing.T, wmax float64) (*lti.System, *poly.Polytope) {
	t.Helper()
	a := mat.FromRows([][]float64{{0.9}})
	b := mat.FromRows([][]float64{{1}})
	sys := lti.NewSystem(a, b).WithConstraints(
		poly.Box([]float64{-1}, []float64{1}),
		poly.Box([]float64{-1}, []float64{1}),
		poly.Box([]float64{-wmax}, []float64{wmax}),
	)
	xi, err := MaximalInvariantSet(sys.X, sys.A, sys.C, sys.W)
	if err != nil {
		t.Fatal(err)
	}
	return sys, xi
}

// TestSkipBudgetMatchesLinearScan is the oracle's defining property: the
// binary-searched Remaining equals the naive largest-k-with-x∈S_k scan over
// the chain the fixpoint computation produced.
func TestSkipBudgetMatchesLinearScan(t *testing.T) {
	sys, xi := budgetRig(t, 0.05)
	const depth = 8
	sb, err := NewSkipBudget(xi, sys, depth)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Max() < 1 || sb.Max() > depth {
		t.Fatalf("Max() = %d, want within [1, %d]", sb.Max(), depth)
	}
	chain := sb.Sets()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		x := mat.Vec{rng.Float64()*2.4 - 1.2} // cover inside and outside X
		naive := 0
		for k, s := range chain {
			if !s.Contains(x, 1e-9) {
				break
			}
			naive = k + 1
		}
		if got := sb.Remaining(x); got != naive {
			t.Fatalf("Remaining(%v) = %d, naive scan = %d", x, got, naive)
		}
	}
}

// TestSkipBudgetCertifiesSkips verifies the semantic contract against the
// dynamics: from any state with Remaining ≥ k, k consecutive zero-input
// steps under worst-case admissible disturbances stay inside XI.
func TestSkipBudgetCertifiesSkips(t *testing.T) {
	sys, xi := budgetRig(t, 0.05)
	sb, err := NewSkipBudget(xi, sys, 6)
	if err != nil {
		t.Fatal(err)
	}
	wWorst := []float64{-0.05, 0.05} // extreme points of W
	rng := rand.New(rand.NewSource(11))
	lo, hi, err := xi.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	zero := mat.Vec{0}
	for trial := 0; trial < 300; trial++ {
		x := mat.Vec{lo[0] + rng.Float64()*(hi[0]-lo[0])}
		k := sb.Remaining(x)
		if k == 0 {
			continue
		}
		// Exhaustively push the worst disturbance sign at every step.
		for _, sign := range wWorst {
			cur := x.Clone()
			for step := 0; step < k; step++ {
				cur = sys.Step(cur, zero, mat.Vec{sign})
				if !xi.Contains(cur, 1e-7) {
					t.Fatalf("x=%v budget=%d: left XI at skip %d (w=%v): %v",
						x, k, step+1, sign, cur)
				}
			}
		}
	}
}

// TestSkipBudgetChainMonotone pins the structural invariant Remaining
// relies on: deeper sets are contained in shallower ones, so membership is
// a prefix property.
func TestSkipBudgetChainMonotone(t *testing.T) {
	sys, xi := budgetRig(t, 0.02)
	sb, err := NewSkipBudget(xi, sys, 8)
	if err != nil {
		t.Fatal(err)
	}
	chain := sb.Sets()
	for k := 1; k < len(chain); k++ {
		ok, err := chain[k-1].Covers(chain[k], 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("S_%d ⊄ S_%d: chain not monotone", k+1, k)
		}
	}
	// The Chebyshev center of S_k must carry a budget of at least k.
	for k, s := range chain {
		c, _, err := s.Chebyshev()
		if err != nil {
			t.Fatal(err)
		}
		if got := sb.Remaining(c); got < k+1 {
			t.Errorf("center of S_%d has Remaining %d, want ≥ %d", k+1, got, k+1)
		}
	}
}

// TestBudgetFromChain covers the wrap-an-existing-chain path and the empty
// chain edge case.
func TestBudgetFromChain(t *testing.T) {
	sys, xi := budgetRig(t, 0.05)
	chain, err := ConsecutiveSkipSets(xi, sys, 4)
	if err != nil {
		t.Fatal(err)
	}
	sb := BudgetFromChain(chain)
	if sb.Max() != len(chain) {
		t.Fatalf("Max() = %d, want %d", sb.Max(), len(chain))
	}
	empty := BudgetFromChain(nil)
	if empty.Max() != 0 {
		t.Fatalf("empty chain Max() = %d, want 0", empty.Max())
	}
	if got := empty.Remaining(mat.Vec{0}); got != 0 {
		t.Fatalf("empty chain Remaining = %d, want 0", got)
	}
}
