package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"oic/internal/controller"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/poly"
	"oic/internal/reach"
)

// testRig builds a double-integrator with a stabilizing LQR feedback, its
// maximal invariant set XI, and the strengthened safe set X′.
func testRig(t *testing.T) (*lti.System, *controller.AffineFeedback, SafetySets) {
	t.Helper()
	a := mat.FromRows([][]float64{{1, 0.1}, {0, 1}})
	b := mat.FromRows([][]float64{{0}, {0.1}})
	sys := lti.NewSystem(a, b).WithConstraints(
		poly.Box([]float64{-5, -3}, []float64{5, 3}),
		poly.Box([]float64{-4}, []float64{4}),
		poly.Box([]float64{-0.03, -0.03}, []float64{0.03, 0.03}),
	)
	k, err := controller.LQR(a, b, mat.Identity(2), mat.Identity(1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fb := controller.NewAffineFeedback(k, nil, nil)

	acl, ccl := sys.ClosedLoop(k, mat.Vec{0, 0}, mat.Vec{0})
	// Restrict to states where the feedback is admissible, then find the
	// maximal invariant set of the closed loop.
	ha := sys.U.A.Mul(k)
	adm := poly.New(ha, sys.U.B.Clone())
	xi, err := reach.MaximalInvariantSet(poly.Intersect(sys.X, adm).ReduceRedundancy(), acl, ccl, sys.W)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := ComputeSafetySets(sys, xi)
	if err != nil {
		t.Fatal(err)
	}
	return sys, fb, sets
}

func TestComputeSafetySetsNesting(t *testing.T) {
	sys, _, sets := testRig(t)
	if ok, _ := sets.XI.Covers(sets.XPrime, 1e-6); !ok {
		t.Error("X' ⊄ XI")
	}
	if ok, _ := sys.X.Covers(sets.XI, 1e-6); !ok {
		t.Error("XI ⊄ X")
	}
}

func TestComputeSafetySetsRejectsBadXI(t *testing.T) {
	sys, _, _ := testRig(t)
	tooBig := poly.Box([]float64{-50, -50}, []float64{50, 50})
	if _, err := ComputeSafetySets(sys, tooBig); err == nil {
		t.Error("XI larger than X accepted")
	}
}

func TestMonitorLevels(t *testing.T) {
	_, _, sets := testRig(t)
	m := NewMonitor(sets)
	// Origin is deep inside every set.
	if lv := m.Level(mat.Vec{0, 0}); lv != InXPrime {
		t.Errorf("origin level = %v", lv)
	}
	if lv := m.Level(mat.Vec{100, 100}); lv != Unsafe {
		t.Errorf("far state level = %v", lv)
	}
}

func TestFrameworkValidation(t *testing.T) {
	sys, fb, sets := testRig(t)
	if _, err := NewFramework(nil, fb, sets, BangBang{}, 1); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := NewFramework(sys, fb, SafetySets{}, BangBang{}, 1); err == nil {
		t.Error("empty sets accepted")
	}
	if _, err := NewFramework(sys, fb, sets, BangBang{}, -1); err == nil {
		t.Error("negative memory accepted")
	}
}

func TestSessionRejectsStartOutsideXI(t *testing.T) {
	sys, fb, sets := testRig(t)
	f, err := NewFramework(sys, fb, sets, BangBang{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.NewSession(mat.Vec{100, 0}); err == nil {
		t.Error("start outside XI accepted")
	}
}

func TestAlwaysRunNeverSkips(t *testing.T) {
	sys, fb, sets := testRig(t)
	f, err := NewFramework(sys, fb, sets, AlwaysRun{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(mat.Vec{0.5, 0}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skips != 0 || res.Runs != 50 {
		t.Errorf("skips=%d runs=%d", res.Skips, res.Runs)
	}
	if res.ControllerCalls != 50 {
		t.Errorf("controller calls = %d", res.ControllerCalls)
	}
}

func TestBangBangSkipsInsideXPrime(t *testing.T) {
	sys, fb, sets := testRig(t)
	f, err := NewFramework(sys, fb, sets, BangBang{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(mat.Vec{0, 0}, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skips == 0 {
		t.Error("bang-bang never skipped from the origin")
	}
	if res.ViolationsX != 0 || res.ViolationsXI != 0 {
		t.Errorf("violations: X=%d XI=%d", res.ViolationsX, res.ViolationsXI)
	}
	// Every run must have been forced by the monitor (policy always says skip).
	if res.Forced != res.Runs {
		t.Errorf("forced=%d runs=%d; bang-bang runs must all be monitor-forced", res.Forced, res.Runs)
	}
}

// TestTheorem1SafetyRandomPolicy is the paper's central guarantee: for ANY
// decision function Ω — here an adversarial coin-flip — the system never
// leaves XI (and therefore X), under worst-case vertex disturbances.
func TestTheorem1SafetyRandomPolicy(t *testing.T) {
	sys, fb, sets := testRig(t)
	wVerts, err := sys.W.Vertices()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(101))
	starts, err := sets.XI.Sample(10, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	for trial, x0 := range starts {
		policy := PolicyFunc{
			Fn:    func(int, mat.Vec, []mat.Vec) bool { return rng.Float64() < 0.3 },
			Label: "random",
		}
		f, err := NewFramework(sys, fb, sets, policy, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(x0, 120, func(int) mat.Vec {
			return wVerts[rng.Intn(len(wVerts))].Clone()
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.ViolationsX != 0 || res.ViolationsXI != 0 {
			t.Fatalf("trial %d: Theorem 1 violated: X=%d XI=%d violations",
				trial, res.ViolationsX, res.ViolationsXI)
		}
	}
}

func TestSessionStepWithChoiceMonitorOverride(t *testing.T) {
	sys, fb, sets := testRig(t)
	f, err := NewFramework(sys, fb, sets, BangBang{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Start inside XI but outside X′ if possible: walk outward along x1.
	var x0 mat.Vec
	for s := 0.0; s < 6; s += 0.01 {
		cand := mat.Vec{s, 0}
		if sets.XI.Contains(cand, 1e-9) && !sets.XPrime.Contains(cand, 1e-9) {
			x0 = cand
			break
		}
	}
	if x0 == nil {
		t.Skip("no XI \\ X' state found on the probe ray")
	}
	sess, err := f.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.StepWithChoice(mat.Vec{0, 0}, false) // ask to skip
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Ran || !rec.Forced {
		t.Errorf("monitor failed to override skip outside X': ran=%v forced=%v", rec.Ran, rec.Forced)
	}
}

func TestResultTrajectoryAndEnergy(t *testing.T) {
	sys, fb, sets := testRig(t)
	f, err := NewFramework(sys, fb, sets, AlwaysRun{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := f.NewSession(mat.Vec{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive the trajectory from the returned steps: each successor
	// must be the model's step from the previous one, and the inputs must
	// account for the session's energy counter.
	x, energy := mat.Vec{1, 0}, 0.0
	for i := 0; i < 20; i++ {
		w := mat.Vec{0, 0}
		st, err := sess.Step(w)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Ran || !sys.Step(x, st.U, w).Equal(st.X, 1e-12) {
			t.Fatalf("step %d: %+v does not follow from %v", i, st, x)
		}
		x = st.X.Clone()
		energy += st.U.Norm1()
	}
	if sess.Time() != 20 || sess.Result.Runs != 20 {
		t.Fatalf("trajectory sizes wrong: t=%d runs=%d", sess.Time(), sess.Result.Runs)
	}
	if math.Abs(energy-sess.Result.Energy) > 1e-9 {
		t.Errorf("energy mismatch: %v vs %v", energy, sess.Result.Energy)
	}
}

func TestRecentWWindow(t *testing.T) {
	sys, fb, sets := testRig(t)
	f, err := NewFramework(sys, fb, sets, BangBang{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := f.NewSession(mat.Vec{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := sess.Step(mat.Vec{float64(i) * 0.001, 0}); err != nil {
			t.Fatal(err)
		}
	}
	w := sess.RecentW()
	if len(w) != 3 {
		t.Fatalf("window size %d", len(w))
	}
	// Most recent last: 0.002, 0.003, 0.004.
	for i, want := range []float64{0.002, 0.003, 0.004} {
		if math.Abs(w[i][0]-want) > 1e-12 {
			t.Errorf("w[%d] = %v, want %v", i, w[i][0], want)
		}
	}
}

// TestModelBasedPolicyOnKnownDisturbance checks the MIP policy skips when
// skipping is free (zero disturbance at the origin) and still maintains
// safety on a disturbed run.
func TestModelBasedPolicyOnKnownDisturbance(t *testing.T) {
	sys, fb, sets := testRig(t)
	zeroW := func(int) mat.Vec { return mat.Vec{0, 0} }
	pol := &ModelBasedPolicy{
		Sys:     SysModel{A: sys.A, B: sys.B, C: sys.C},
		Kappa:   fb,
		XPrime:  sets.XPrime,
		U:       sys.U,
		Horizon: 4,
		KnownW:  zeroW,
	}
	if err := pol.Validate(); err != nil {
		t.Fatal(err)
	}
	// At the origin with zero disturbance, skipping costs nothing: z = 0.
	if pol.Decide(0, mat.Vec{0, 0}, nil) {
		t.Error("model-based policy ran κ at the origin with zero disturbance")
	}

	// Full run with a known sinusoidal disturbance.
	wf := func(tt int) mat.Vec {
		return mat.Vec{0.03 * math.Sin(float64(tt)*0.3), 0}
	}
	pol2 := &ModelBasedPolicy{
		Sys:     SysModel{A: sys.A, B: sys.B, C: sys.C},
		Kappa:   fb,
		XPrime:  sets.XPrime,
		U:       sys.U,
		Horizon: 4,
		KnownW:  wf,
	}
	f, err := NewFramework(sys, fb, sets, pol2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(mat.Vec{0.5, 0.2}, 40, func(tt int) mat.Vec { return wf(tt) })
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationsX != 0 || res.ViolationsXI != 0 {
		t.Errorf("violations: X=%d XI=%d", res.ViolationsX, res.ViolationsXI)
	}
	if res.Skips == 0 {
		t.Error("model-based policy never skipped")
	}

	// The optimizing policy must not spend more energy than always running.
	fAlways, _ := NewFramework(sys, fb, sets, AlwaysRun{}, 1)
	resAlways, err := fAlways.Run(mat.Vec{0.5, 0.2}, 40, func(tt int) mat.Vec { return wf(tt) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy > resAlways.Energy+1e-9 {
		t.Errorf("model-based energy %v exceeds always-run %v", res.Energy, resAlways.Energy)
	}
}

func TestModelBasedStatsAndFallback(t *testing.T) {
	sys, fb, sets := testRig(t)
	// Horizon 0 is invalid: Decide must fall back to running κ.
	bad := &ModelBasedPolicy{
		Sys: SysModel{A: sys.A, B: sys.B, C: sys.C}, Kappa: fb,
		XPrime: sets.XPrime, U: sys.U, Horizon: 0,
		KnownW: func(int) mat.Vec { return mat.Vec{0, 0} },
	}
	if !bad.Decide(0, mat.Vec{0, 0}, nil) {
		t.Error("invalid policy did not fall back to z=1")
	}
	if bad.Stats().Fallbacks != 1 {
		t.Errorf("fallbacks = %d", bad.Stats().Fallbacks)
	}
}

// TestSessionLevelMemo pins the session's level memo: after NewSession,
// Step, StepWithChoice and Reset, whether or not Level was read before
// the write, Level is the monitor's verdict on the current state, and a
// step reports the level of the state it stepped.
func TestSessionLevelMemo(t *testing.T) {
	sys, fb, sets := testRig(t)
	rng := rand.New(rand.NewSource(7))
	policy := PolicyFunc{Fn: func(int, mat.Vec, []mat.Vec) bool { return rng.Intn(2) == 0 }, Label: "coin"}
	f, err := NewFramework(sys, fb, sets, policy, 2)
	if err != nil {
		t.Fatal(err)
	}
	mon := f.Monitor()
	check := func(what string, s *Session) {
		t.Helper()
		if got, want := s.Level(), mon.Level(s.StateView()); got != want {
			t.Fatalf("%s: Level() = %v, monitor says %v at %v", what, got, want, s.StateView())
		}
	}
	// Starts on both sides of X′'s boundary, so the walk visits both
	// levels and a Reset crosses it.
	pool, err := sets.XI.Sample(400, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	var starts []mat.Vec
	in, out := 0, 0
	for _, x := range pool {
		if mon.Level(x) == InXPrime && in < 3 {
			starts, in = append(starts, x), in+1
		} else if mon.Level(x) == InXI && out < 3 {
			starts, out = append(starts, x), out+1
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("sampled %d starts in X′ and %d in XI \\ X′", in, out)
	}
	wVerts, err := sys.W.Vertices()
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.NewSession(starts[0])
	if err != nil {
		t.Fatal(err)
	}
	check("NewSession", s)
	levels := map[Level]int{}
	for k, x0 := range starts {
		if k > 0 {
			if rng.Intn(2) == 0 {
				s.Level() // a memo taken on the old state must not survive Reset
			}
			if err := s.Reset(x0); err != nil {
				t.Fatal(err)
			}
			check("Reset", s)
		}
		for i := 0; i < 60; i++ {
			pre := mon.Level(s.StateView())
			if rng.Intn(2) == 0 {
				s.Level()
			}
			w := wVerts[rng.Intn(len(wVerts))]
			var st Step
			if rng.Intn(2) == 0 {
				st, err = s.Step(w)
			} else {
				st, err = s.StepWithChoice(w, rng.Intn(2) == 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.Level != pre {
				t.Fatalf("step %d: reported level %v, the pre-step state's is %v", i, st.Level, pre)
			}
			check("step", s)
			levels[st.Level]++
		}
	}
	if levels[InXPrime] == 0 || levels[InXI] == 0 {
		t.Fatalf("levels visited %v: the walk never left X′", levels)
	}
}

// TestNonFiniteStartRefused: a NaN state is outside every set, so a
// session cannot start at one.
func TestNonFiniteStartRefused(t *testing.T) {
	sys, fb, sets := testRig(t)
	f, err := NewFramework(sys, fb, sets, BangBang{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.NewSession(mat.Vec{math.NaN(), 0}); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("NewSession(NaN, 0): %v, want ErrUnsafe", err)
	}
	if got := f.Monitor().Level(mat.Vec{0, math.NaN()}); got != Unsafe {
		t.Fatalf("Level(0, NaN) = %v, want unsafe", got)
	}
}
