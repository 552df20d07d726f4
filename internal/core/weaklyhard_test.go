package core

import (
	"math/rand"
	"testing"

	"oic/internal/mat"
	"oic/internal/reach"
)

func TestWindowMisses(t *testing.T) {
	mk := func(pattern string) []Step {
		recs := make([]Step, len(pattern))
		for i, c := range pattern {
			recs[i].Ran = c == '1'
		}
		return recs
	}
	cases := []struct {
		pattern string
		k, want int
	}{
		{"1111", 2, 0},
		{"0000", 2, 2},
		{"1010", 2, 1},
		{"10010", 3, 2},
		{"0110", 1, 1},
		{"01", 5, 0}, // window longer than the record
	}
	for _, c := range cases {
		if got := WindowMisses(mk(c.pattern), c.k); got != c.want {
			t.Errorf("WindowMisses(%q, %d) = %d, want %d", c.pattern, c.k, got, c.want)
		}
	}
	if !SatisfiesMK(mk("10010"), 2, 3) || SatisfiesMK(mk("10010"), 1, 3) {
		t.Error("SatisfiesMK misjudged the pattern")
	}
}

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

func TestMaxConsecutiveSkips(t *testing.T) {
	sys, _, sets := testRig(t)
	chain, err := reach.ConsecutiveSkipSets(sets.XI, sys, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The origin sits deep inside every set of this chain.
	if got := MaxConsecutiveSkips(chain, mat.Vec{0, 0}, 1e-9); got != len(chain) {
		t.Errorf("budget at origin = %d, want %d", got, len(chain))
	}
	// A state outside S1 has budget 0.
	far := mat.Vec{4.9, 2.9}
	if chain[0].Contains(far, 1e-9) {
		t.Skip("probe state unexpectedly inside S1")
	}
	if got := MaxConsecutiveSkips(chain, far, 1e-9); got != 0 {
		t.Errorf("budget at %v = %d, want 0", far, got)
	}
}

func TestBudgetPolicyRunsAndSaves(t *testing.T) {
	sys, fb, sets := testRig(t)
	chain, err := reach.ConsecutiveSkipSets(sets.XI, sys, 4)
	if err != nil {
		t.Fatal(err)
	}
	pol := &BudgetPolicy{SkipSets: chain, MinBudget: 2}
	if pol.Name() == "" {
		t.Error("empty name")
	}
	f, err := NewFramework(sys, fb, sets, pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	wVerts, _ := sys.W.Vertices()
	res, err := f.Run(mat.Vec{0.5, 0}, 150, func(int) mat.Vec {
		return wVerts[rng.Intn(len(wVerts))].Clone()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationsX != 0 || res.ViolationsXI != 0 {
		t.Errorf("violations: X=%d XI=%d", res.ViolationsX, res.ViolationsXI)
	}
	if res.Skips == 0 {
		t.Error("budget policy never skipped")
	}
	// Against always-run on the same disturbance stream it must not be
	// more expensive than never skipping... (energy of feedback is state
	// dependent, so just require meaningful skipping).
	if res.SkipRate() < 0.2 {
		t.Errorf("skip rate %.2f suspiciously low", res.SkipRate())
	}
}
