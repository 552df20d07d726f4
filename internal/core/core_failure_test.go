package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"oic/internal/controller"
	"oic/internal/mat"
)

// failingController always errors; the framework must surface the failure
// with context rather than actuating garbage.
type failingController struct{}

func (failingController) Compute(mat.Vec) (mat.Vec, error) {
	return nil, errors.New("actuator offline")
}
func (failingController) Name() string { return "failing" }

func TestSessionSurfacesControllerError(t *testing.T) {
	sys, _, sets := testRig(t)
	f, err := NewFramework(sys, failingController{}, sets, AlwaysRun{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := f.NewSession(mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Step(mat.Vec{0, 0})
	if err == nil {
		t.Fatal("controller failure swallowed")
	}
	if !strings.Contains(err.Error(), "actuator offline") {
		t.Errorf("error lost cause: %v", err)
	}
}

func TestSkipPathDoesNotTouchController(t *testing.T) {
	// With a policy that always skips, a failing κ must never be invoked
	// while the state stays within X'.
	sys, _, sets := testRig(t)
	f, err := NewFramework(sys, failingController{}, sets, BangBang{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := f.NewSession(mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// The undisturbed double integrator stays at the origin under u = 0.
	for i := 0; i < 10; i++ {
		rec, err := sess.Step(mat.Vec{0, 0})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if rec.Ran {
			t.Fatalf("step %d ran the controller on the skip path", i)
		}
	}
	if sess.Result.ControllerCalls != 0 {
		t.Errorf("controller calls = %d", sess.Result.ControllerCalls)
	}
}

func TestMonitorTolerance(t *testing.T) {
	_, _, sets := testRig(t)
	m := NewMonitor(sets)
	// A point epsilon outside X' must classify as the next level out, and
	// widening the tolerance must pull it back in.
	lo, hi, err := sets.XPrime.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	_ = lo
	probe := mat.Vec{hi[0] + 1e-6, 0}
	if m.Level(probe) == InXPrime {
		t.Skip("probe still inside X' (non-box boundary); tolerance probe inconclusive")
	}
	// Widening the tolerance beyond the probe's actual violation must pull
	// it back into X'.
	m.Tol = sets.XPrime.Violation(probe) + 1e-9
	if m.Level(probe) != InXPrime {
		t.Errorf("tolerance not honored")
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{
		InXPrime: "X'", InXI: "XI", InX: "X", Unsafe: "unsafe",
	} {
		if lv.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(lv), lv.String(), want)
		}
	}
}

func TestSkipRate(t *testing.T) {
	r := &Result{Skips: 3, Runs: 1}
	if got := r.SkipRate(); got != 0.75 {
		t.Errorf("SkipRate = %v", got)
	}
	if got := (&Result{}).SkipRate(); got != 0 {
		t.Errorf("empty SkipRate = %v", got)
	}
}

func TestDegradeOptionalComputeFailure(t *testing.T) {
	// Degraded mode: at the origin (x ∈ X′) an AlwaysRun policy wants κ,
	// κ fails, and the step falls back to the certified zero-input skip
	// instead of closing the session.
	sys, _, sets := testRig(t)
	f, err := NewFramework(sys, failingController{}, sets, AlwaysRun{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := f.NewSession(mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sess.SetDegrade(true)
	for i := 0; i < 6; i++ {
		rec, err := sess.Step(mat.Vec{0, 0})
		if err != nil {
			t.Fatalf("step %d: degraded session errored: %v", i, err)
		}
		if rec.Ran {
			t.Fatalf("step %d: degraded step recorded as a run", i)
		}
	}
	if sess.Closed() {
		t.Fatal("degraded session closed")
	}
	res := sess.Result
	if res.Degraded != 6 || res.Skips != 6 || res.Runs != 0 {
		t.Fatalf("counters: degraded=%d skips=%d runs=%d, want 6/6/0", res.Degraded, res.Skips, res.Runs)
	}
	if res.ViolationsX != 0 || res.ViolationsXI != 0 {
		t.Fatalf("degradation violated safety: %d/%d", res.ViolationsX, res.ViolationsXI)
	}
}

func TestDegradeForcedComputeStaysTerminal(t *testing.T) {
	// A κ failure on a monitor-forced compute has no safe fallback: even
	// in degraded mode the session must close loudly.
	sys, _, sets := testRig(t)
	f, err := NewFramework(sys, failingController{}, sets, BangBang{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := f.NewSession(forcedState(t, sets))
	if err != nil {
		t.Fatal(err)
	}
	sess.SetDegrade(true)
	if _, err := sess.Step(mat.Vec{0, 0}); err == nil {
		t.Fatal("forced κ failure survived degraded mode")
	}
	if !sess.Closed() {
		t.Fatal("session open after terminal forced failure")
	}
	if _, err := sess.Step(mat.Vec{0, 0}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("stepping a closed session: %v", err)
	}
}

func TestResetClearsDegrade(t *testing.T) {
	// Reset restores the cold default (degrade off) so pooled sessions
	// never inherit a previous tenant's failure mode.
	sys, _, sets := testRig(t)
	f, err := NewFramework(sys, failingController{}, sets, AlwaysRun{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := f.NewSession(mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sess.SetDegrade(true)
	if _, err := sess.Step(mat.Vec{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Reset(mat.Vec{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(mat.Vec{0, 0}); err == nil {
		t.Fatal("degrade survived Reset")
	}
}

// nonFiniteController returns u for every state, without an error.
type nonFiniteController struct{ u mat.Vec }

func (c nonFiniteController) Compute(mat.Vec) (mat.Vec, error) { return c.u, nil }
func (nonFiniteController) Name() string                       { return "non-finite" }

// TestNonFiniteKappaOutputFails: a κ output with a NaN or ±Inf entry is a
// κ failure, wrapping controller.ErrInfeasible. A forced compute with it
// closes the session without applying the input, degraded or not; an
// optional one under Degrade falls back to the certified skip.
func TestNonFiniteKappaOutputFails(t *testing.T) {
	sys, _, sets := testRig(t)
	forced := forcedState(t, sets)
	for _, u := range []mat.Vec{{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}} {
		f, err := NewFramework(sys, nonFiniteController{u}, sets, AlwaysRun{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, degrade := range []bool{false, true} {
			sess, err := f.NewSession(forced)
			if err != nil {
				t.Fatal(err)
			}
			sess.SetDegrade(degrade)
			if _, err := sess.Step(mat.Vec{0, 0}); !errors.Is(err, controller.ErrInfeasible) {
				t.Fatalf("u = %v, degrade %v: forced step returned %v, want ErrInfeasible", u, degrade, err)
			}
			if !sess.Closed() || sess.Time() != 0 || !mat.BitsEqual(sess.StateView(), forced) || sess.Result.Energy != 0 {
				t.Fatalf("u = %v, degrade %v: after the failed step: closed %v, t %d, x %v, energy %v", u, degrade,
					sess.Closed(), sess.Time(), sess.StateView(), sess.Result.Energy)
			}
		}

		sess, err := f.NewSession(mat.Vec{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		sess.SetDegrade(true)
		rec, err := sess.Step(mat.Vec{0, 0})
		if err != nil || rec.Ran || sess.Result.Degraded != 1 || sess.Result.Energy != 0 {
			t.Fatalf("u = %v: optional degraded step: ran %v, err %v, degraded %d, energy %v; want the certified skip",
				u, rec.Ran, err, sess.Result.Degraded, sess.Result.Energy)
		}
	}
}

// forcedState returns a state of the test rig in XI \ X′, where the
// monitor forces κ: the first of a seeded sample of XI at that level.
func forcedState(t *testing.T, sets SafetySets) mat.Vec {
	t.Helper()
	pts, err := sets.XI.Sample(400, rand.New(rand.NewSource(1)).Float64)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(sets)
	for _, p := range pts {
		if m.Level(p) == InXI {
			return p
		}
	}
	t.Fatal("no sampled state in XI \\ X'")
	return nil
}
