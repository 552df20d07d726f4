package orbit

import (
	"math"
	"math/rand"
	"testing"

	"oic/internal/core"
	"oic/internal/mat"
	"oic/internal/reach"
)

func TestNewModelSetsNested(t *testing.T) {
	m, err := NewModel()
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := m.Sets.XI.Covers(m.Sets.XPrime, 1e-6); !ok {
		t.Error("X' ⊄ XI")
	}
	if ok, _ := m.Sets.X.Covers(m.Sets.XI, 1e-6); !ok {
		t.Error("XI ⊄ X")
	}
	if m.Sets.XPrime.IsEmpty() {
		t.Error("X' empty: skipping never admissible")
	}
}

func TestSpaceWeatherTraceStaysInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sc := range scenarios() {
		w := sc.Weather.Trace(rng, 500)
		for i, wt := range w {
			if math.Abs(wt[0]) > WPosMax+1e-12 || math.Abs(wt[1]) > WVelMax+1e-12 {
				t.Fatalf("%s: disturbance %v at step %d outside design box", sc.ID, wt, i)
			}
		}
	}
}

// TestSkippingIsSafeUnderAdversarialPolicy is the Theorem 1 property on
// the orbit plant: any skipping decision sequence keeps the state in XI.
func TestSkippingIsSafeUnderAdversarialPolicy(t *testing.T) {
	m, err := NewModel()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	adversary := core.PolicyFunc{
		Fn:    func(int, mat.Vec, []mat.Vec) bool { return rng.Intn(2) == 0 },
		Label: "adversarial-random",
	}
	fw, err := core.NewFramework(m.Sys, m.RMPC, m.Sets, adversary, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0s, err := m.Sets.XPrime.Sample(4, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	sw := scenarios()[3].Weather // storm
	for _, x0 := range x0s {
		sess, err := fw.NewSession(x0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range sw.Trace(rng, 150) {
			if _, err := sess.Step(w); err != nil {
				t.Fatal(err)
			}
		}
		if sess.Result.ViolationsX != 0 || sess.Result.ViolationsXI != 0 {
			t.Fatalf("violations X=%d XI=%d", sess.Result.ViolationsX, sess.Result.ViolationsXI)
		}
	}
}

// TestConsecutiveSkipChain sanity-checks the skip-budget chain on the
// orbit plant: the S_k chain must be nested and start inside XI.
func TestConsecutiveSkipChain(t *testing.T) {
	m, err := NewModel()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := reach.ConsecutiveSkipSets(m.Sets.XI, m.Sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) == 0 {
		t.Fatal("empty chain")
	}
	prev := m.Sets.XI
	for k, s := range chain {
		if ok, _ := prev.Covers(s, 1e-6); !ok {
			t.Errorf("S%d not contained in predecessor", k+1)
		}
		prev = s
	}
}
