package audit

import (
	"math/rand"
	"testing"

	"oic/internal/controller"
	"oic/internal/core"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/poly"
	"oic/internal/reach"
	"oic/internal/trace"
)

func rig(t *testing.T) (*lti.System, *core.Framework, core.SafetySets) {
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
	adm := poly.New(sys.U.A.Mul(k), sys.U.B.Clone())
	xi, err := reach.MaximalInvariantSet(poly.Intersect(sys.X, adm).ReduceRedundancy(), acl, ccl, sys.W)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := core.ComputeSafetySets(sys, xi)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.NewFramework(sys, fb, sets, core.BangBang{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys, fw, sets
}

// cleanRun records an 80-step bang-bang episode under vertex
// disturbances.
func cleanRun(t *testing.T, sys *lti.System, fw *core.Framework) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	wVerts, err := sys.W.Vertices()
	if err != nil {
		t.Fatal(err)
	}
	x0 := mat.Vec{0.5, 0.2}
	sess, err := fw.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.Meta{Plant: "audit-rig"}, x0, sys.NU(), 0)
	for i := 0; i < 80; i++ {
		st, err := sess.Step(wVerts[rng.Intn(len(wVerts))].Clone())
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Append(st); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Trace()
}

func TestCleanRunAuditsClean(t *testing.T) {
	sys, fw, sets := rig(t)
	res := cleanRun(t, sys, fw)
	rep := Run(sys, sets, res)
	if !rep.OK() {
		t.Fatalf("clean run flagged: %v", rep)
	}
	if rep.Steps != 80 {
		t.Errorf("steps = %d", rep.Steps)
	}
}

func TestDetectsOutOfModelDisturbance(t *testing.T) {
	sys, fw, sets := rig(t)
	res := cleanRun(t, sys, fw)
	res.Steps[10].W = mat.Vec{0.5, 0} // way outside W
	rep := Run(sys, sets, res)
	if rep.Count(OutOfModelDisturbance) == 0 {
		t.Error("tampered disturbance not flagged")
	}
}

func TestDetectsDynamicsMismatch(t *testing.T) {
	sys, fw, sets := rig(t)
	res := cleanRun(t, sys, fw)
	res.Steps[5].X = res.Steps[5].X.Add(mat.Vec{0.1, 0})
	rep := Run(sys, sets, res)
	if rep.Count(DynamicsMismatch) == 0 {
		t.Error("tampered transition not flagged")
	}
}

func TestDetectsSkipActuated(t *testing.T) {
	sys, fw, sets := rig(t)
	res := cleanRun(t, sys, fw)
	// Find a skipped step and forge an actuation on it (also breaking
	// dynamics, but the SkipActuated finding must fire regardless).
	for i := range res.Steps {
		if !res.Steps[i].Ran {
			res.Steps[i].U = mat.Vec{1}
			break
		}
	}
	rep := Run(sys, sets, res)
	if rep.Count(SkipActuated) == 0 {
		t.Error("actuated skip not flagged")
	}
}

func TestDetectsEnergyMismatch(t *testing.T) {
	sys, fw, sets := rig(t)
	res := cleanRun(t, sys, fw)
	res.Energy += 1
	rep := Run(sys, sets, res)
	if rep.Count(EnergyMismatch) == 0 {
		t.Error("energy tampering not flagged")
	}
}

func TestDetectsMonitorInconsistency(t *testing.T) {
	sys, fw, sets := rig(t)
	res := cleanRun(t, sys, fw)
	// Forge step 3 as a skip from a state far outside X′ (its pre-state
	// is step 2's successor).
	res.Steps[2].X = mat.Vec{4.9, 2.9}
	res.Steps[3].Ran = false
	rep := Run(sys, sets, res)
	if rep.Count(MonitorInconsistency) == 0 && rep.Count(DynamicsMismatch) == 0 {
		t.Error("forged monitor state not flagged at all")
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Steps: 5}
	if r.String() == "" || !r.OK() {
		t.Error("empty report misbehaves")
	}
	r.Findings = append(r.Findings, Finding{Step: 2, Kind: SafetyViolation, Msg: "x"})
	if r.OK() || r.String() == "" {
		t.Error("non-empty report misbehaves")
	}
}
