package core

import (
	"math/rand"
	"testing"

	"oic/internal/mat"
	"oic/internal/reach"
)

func TestConsecutiveSkipSetsChain(t *testing.T) {
	sys, _, sets := testRig(t)
	chain, err := reach.ConsecutiveSkipSets(sets.XI, sys, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) == 0 {
		t.Fatal("empty chain")
	}
	// S₁ must equal the strengthened safe set X′.
	ok1, _ := chain[0].Covers(sets.XPrime, 1e-6)
	ok2, _ := sets.XPrime.Covers(chain[0], 1e-6)
	if !ok1 || !ok2 {
		t.Error("S1 differs from X'")
	}
	// Monotone decreasing.
	for k := 1; k < len(chain); k++ {
		ok, err := chain[k-1].Covers(chain[k], 1e-6)
		if err != nil || !ok {
			t.Errorf("S%d ⊄ S%d: %v %v", k+1, k, ok, err)
		}
	}
}

// The semantic guarantee: from x ∈ S_k, k zero-input steps under vertex
// disturbances stay inside XI throughout.
func TestConsecutiveSkipSetsSemantics(t *testing.T) {
	sys, _, sets := testRig(t)
	chain, err := reach.ConsecutiveSkipSets(sets.XI, sys, 4)
	if err != nil {
		t.Fatal(err)
	}
	wVerts, err := sys.W.Vertices()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	zero := make(mat.Vec, sys.NU())
	for k := 1; k <= len(chain); k++ {
		pts, err := chain[k-1].Sample(15, rng.Float64)
		if err != nil {
			t.Fatal(err)
		}
		for _, x0 := range pts {
			// Depth-first over disturbance vertex sequences would be 4^k;
			// sample random vertex sequences instead.
			for trial := 0; trial < 20; trial++ {
				x := x0.Clone()
				for step := 0; step < k; step++ {
					x = sys.Step(x, zero, wVerts[rng.Intn(len(wVerts))])
					if !sets.XI.Contains(x, 1e-6) {
						t.Fatalf("S%d: skip step %d left XI from %v", k, step, x0)
					}
				}
			}
		}
	}
}

// TestMaxConsecutiveSkips reads the skip budget of the framework's own
// safety sets through the S_k oracle the fleet scheduler consults.
func TestMaxConsecutiveSkips(t *testing.T) {
	sys, _, sets := testRig(t)
	chain, err := reach.ConsecutiveSkipSets(sets.XI, sys, 5)
	if err != nil {
		t.Fatal(err)
	}
	budget := reach.BudgetFromChain(chain)
	// The origin sits deep inside every set of this chain.
	if got := budget.Remaining(mat.Vec{0, 0}); got != len(chain) {
		t.Errorf("budget at origin = %d, want %d", got, len(chain))
	}
	// A state outside S1 has budget 0.
	far := mat.Vec{4.9, 2.9}
	if chain[0].Contains(far, 1e-9) {
		t.Skip("probe state unexpectedly inside S1")
	}
	if got := budget.Remaining(far); got != 0 {
		t.Errorf("budget at %v = %d, want 0", far, got)
	}
}
