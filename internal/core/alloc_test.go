package core

import (
	"testing"

	"oic/internal/mat"
)

// TestSkipPathZeroAllocs pins the Algorithm-1 skip path (monitor + policy
// + zero input + plant update + counters) at zero allocations per step —
// the regression guard behind BenchmarkFrameworkStepSkip's 0 allocs/op.
func TestSkipPathZeroAllocs(t *testing.T) {
	sys, fb, sets := testRig(t)
	f, err := NewFramework(sys, fb, sets, BangBang{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The origin is an equilibrium of the drift-free double integrator, so
	// with w = 0 and skipping (u = 0) every step stays in X′.
	sess, err := f.NewSession(mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	w := make(mat.Vec, sys.NX())
	if _, err := sess.Step(w); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.Step(w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("skip path allocates %v times per step, want 0", allocs)
	}
	if sess.Result.Runs != 0 {
		t.Fatalf("expected a pure skip run, got %d controller runs", sess.Result.Runs)
	}
	if sess.Result.ViolationsX != 0 {
		t.Fatalf("violations on the skip path: %d", sess.Result.ViolationsX)
	}
}

// TestMonitorLevelZeroAllocs keeps the per-step membership check
// allocation-free on its own.
func TestMonitorLevelZeroAllocs(t *testing.T) {
	_, _, sets := testRig(t)
	m := NewMonitor(sets)
	x := mat.Vec{0, 0}
	allocs := testing.AllocsPerRun(200, func() { m.Level(x) })
	if allocs != 0 {
		t.Errorf("Monitor.Level allocates %v times, want 0", allocs)
	}
}

// TestSessionViewReadsZeroAllocs pins the snapshot-vs-view split: the view
// accessors the serving hot path and the DRL encoders use must not clone,
// while the snapshot accessors return owned copies.
func TestSessionViewReadsZeroAllocs(t *testing.T) {
	sys, fb, sets := testRig(t)
	f, err := NewFramework(sys, fb, sets, BangBang{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := f.NewSession(mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_ = sess.StateView()
		_ = sess.RecentWView()
	})
	if allocs != 0 {
		t.Errorf("view reads allocate %v times per call, want 0", allocs)
	}

	// Snapshots are owned: mutating them must not touch the live session.
	snap := sess.State()
	snap[0] = 99
	if sess.StateView()[0] == 99 {
		t.Error("State snapshot aliases the live buffer")
	}
	wsnap := sess.RecentW()
	wsnap[0][0] = 99
	if sess.RecentWView()[0][0] == 99 {
		t.Error("RecentW snapshot aliases the live ring")
	}
}

// TestStepReturnsViews documents the Step contract: the session keeps
// only scalar counters, and the returned step carries views of the
// session's buffers (the successor aliasing the live state, w the
// caller's slice) rather than owned clones.
func TestStepReturnsViews(t *testing.T) {
	sys, fb, sets := testRig(t)
	f, err := NewFramework(sys, fb, sets, BangBang{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := f.NewSession(mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	w := make(mat.Vec, sys.NX())
	if _, err := sess.Step(w); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Step(w)
	if err != nil {
		t.Fatal(err)
	}
	if &st.X[0] != &sess.StateView()[0] {
		t.Error("step should carry buffer views (X aliasing the live state)")
	}
	if &st.W[0] != &w[0] {
		t.Error("step should carry the caller's disturbance, not a copy")
	}
	if st.Ran || st.Level != InXPrime || sess.Time() != 2 {
		t.Errorf("step %+v at t=%d, want a skip inside X' at t=2", st, sess.Time())
	}
	if got := sess.Result.Skips; got != 2 {
		t.Errorf("skips = %d, want 2 (counters track every step)", got)
	}
}
