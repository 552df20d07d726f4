package acc

import (
	"math"
	"math/rand"
	"testing"

	"oic/internal/core"
	"oic/internal/mat"
	"oic/internal/plant"
	"oic/internal/traffic"
)

// sharedModel is built once; the RMPC feasible-set projection dominates
// construction time.
var sharedModel *Model

func model(t *testing.T) *Model {
	t.Helper()
	if sharedModel == nil {
		m, err := NewModel(Config{})
		if err != nil {
			t.Fatal(err)
		}
		sharedModel = m
	}
	return sharedModel
}

// instance binds the shared model to the Fig. 4 design range driven by
// the front-vehicle profile p.
func instance(t *testing.T, p traffic.Profile) *plant.Instance {
	t.Helper()
	sc := Fig4Scenario()
	sc.Profile = p
	return newInstance(model(t), sc)
}

func TestModelSetNesting(t *testing.T) {
	m := model(t)
	// Fig. 1: X′ ⊆ XI ⊆ X.
	if ok, err := m.Sets.XI.Covers(m.Sets.XPrime, 1e-6); err != nil || !ok {
		t.Errorf("X' ⊄ XI: %v %v", ok, err)
	}
	if ok, err := m.Sets.X.Covers(m.Sets.XI, 1e-6); err != nil || !ok {
		t.Errorf("XI ⊄ X: %v %v", ok, err)
	}
	if m.Sets.XPrime.IsEmpty() {
		t.Error("X' empty: no skipping would ever be admissible")
	}
}

func TestModelEquilibrium(t *testing.T) {
	m := model(t)
	if math.Abs(m.URef[0]-8) > 1e-9 {
		t.Errorf("equilibrium input = %v, want 8 (= k·VE)", m.URef[0])
	}
	next := m.Sys.Step(m.XRef, m.URef, nil)
	if !next.Equal(m.XRef, 1e-9) {
		t.Errorf("reference not a fixed point: %v", next)
	}
}

func TestDisturbanceMapping(t *testing.T) {
	m := model(t)
	w := m.Disturbance(50)
	if !w.Equal(mat.Vec{1, 0}, 1e-12) {
		t.Errorf("w(50) = %v, want [1 0]", w)
	}
	w = m.Disturbance(30)
	if !w.Equal(mat.Vec{-1, 0}, 1e-12) {
		t.Errorf("w(30) = %v, want [-1 0]", w)
	}
	// Disturbances from the design range must lie in W.
	for _, vf := range []float64{30, 35, 40, 45, 50} {
		if !m.Sys.W.Contains(m.Disturbance(vf), 1e-9) {
			t.Errorf("w(%v) outside W", vf)
		}
	}
}

func TestSampleInitialStatesInsideXPrime(t *testing.T) {
	m := model(t)
	rng := rand.New(rand.NewSource(1))
	xs, err := instance(t, Fig4Scenario().Profile).SampleInitialStates(20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 20 {
		t.Fatalf("got %d states", len(xs))
	}
	for _, x := range xs {
		if !m.Sets.XPrime.Contains(x, 1e-9) {
			t.Errorf("sample %v outside X'", x)
		}
	}
}

func TestRunEpisodeSafetyAllPolicies(t *testing.T) {
	inst := instance(t, Fig4Scenario().Profile)
	rng := rand.New(rand.NewSource(2))
	x0s, err := inst.SampleInitialStates(3, rng)
	if err != nil {
		t.Fatal(err)
	}
	policies := []core.SkipPolicy{
		core.AlwaysRun{},
		core.BangBang{},
		core.PolicyFunc{Fn: func(int, mat.Vec, []mat.Vec) bool { return rng.Float64() < 0.5 }, Label: "random"},
	}
	for _, x0 := range x0s {
		w := inst.Disturbances(rng, EpisodeSteps)
		for _, pol := range policies {
			ep, err := inst.RunEpisode(pol, x0, w)
			if err != nil {
				t.Fatalf("%s from %v: %v", pol.Name(), x0, err)
			}
			if ep.Result.ViolationsX != 0 || ep.Result.ViolationsXI != 0 {
				t.Errorf("%s: violations X=%d XI=%d", pol.Name(), ep.Result.ViolationsX, ep.Result.ViolationsXI)
			}
			if ep.Cost <= 0 || ep.Energy < 0 {
				t.Errorf("%s: fuel=%v energy=%v", pol.Name(), ep.Cost, ep.Energy)
			}
		}
	}
}

func TestRunEpisodePairedComparability(t *testing.T) {
	inst := instance(t, Fig4Scenario().Profile)
	rng := rand.New(rand.NewSource(3))
	x0s, _ := inst.SampleInitialStates(1, rng)
	w := inst.Disturbances(rng, EpisodeSteps)
	// Replaying the same episode must be deterministic.
	a, err := inst.RunEpisode(core.BangBang{}, x0s[0], w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inst.RunEpisode(core.BangBang{}, x0s[0], w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Cost-b.Cost) > 1e-12 || a.Result.Skips != b.Result.Skips {
		t.Error("episode replay not deterministic")
	}
}

// TestRunEpisodeFuelMatchesFuelModel pins the per-step fuel meter to the
// whole-trajectory formula it replaces: over a recorded run's speeds and
// commands, FuelModel.Episode's fuel and energy equal RunEpisode's Cost
// and Energy bit for bit.
func TestRunEpisodeFuelMatchesFuelModel(t *testing.T) {
	inst := instance(t, Fig4Scenario().Profile)
	rng := rand.New(rand.NewSource(8))
	x0s, err := inst.SampleInitialStates(2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, x0 := range x0s {
		w := inst.Disturbances(rng, EpisodeSteps)
		for _, pol := range []core.SkipPolicy{core.AlwaysRun{}, core.BangBang{}} {
			fw, err := inst.Framework(pol, plant.DefaultMemory)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := fw.NewSession(x0)
			if err != nil {
				t.Fatal(err)
			}
			speeds, cmds := []float64{x0[1]}, []float64{}
			for _, wt := range w {
				st, err := sess.Step(wt)
				if err != nil {
					t.Fatal(err)
				}
				speeds, cmds = append(speeds, st.X[1]), append(cmds, st.U[0])
			}
			fuel, energy := traffic.DefaultFuelModel().Episode(speeds, cmds, Delta)

			ep, err := inst.RunEpisode(pol, x0, w)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(ep.Cost) != math.Float64bits(fuel) || math.Float64bits(ep.Energy) != math.Float64bits(energy) {
				t.Errorf("%s: RunEpisode cost %v energy %v, FuelModel.Episode %v / %v",
					pol.Name(), ep.Cost, ep.Energy, fuel, energy)
			}
		}
	}
}

func TestBangBangSkipsRoughlyPaperRate(t *testing.T) {
	// The paper reports 79.4/100 skipped steps on the Fig. 4 scenario; our
	// reproduction should be in the same regime (loose band).
	inst := instance(t, Fig4Scenario().Profile)
	rng := rand.New(rand.NewSource(4))
	x0s, _ := inst.SampleInitialStates(5, rng)
	total := 0
	for _, x0 := range x0s {
		ep, err := inst.RunEpisode(core.BangBang{}, x0, inst.Disturbances(rng, EpisodeSteps))
		if err != nil {
			t.Fatal(err)
		}
		total += ep.Result.Skips
	}
	avg := float64(total) / 5
	if avg < 50 || avg > 95 {
		t.Errorf("average skips = %v, want within [50, 95]", avg)
	}
}

func TestScenarioDefinitions(t *testing.T) {
	t1 := Table1Scenarios()
	if len(t1) != 5 {
		t.Fatalf("Table I scenarios = %d", len(t1))
	}
	// Table I ranges.
	wantRanges := [][2]float64{{30, 50}, {32.5, 47.5}, {35, 45}, {38, 42}, {39, 41}}
	for i, sc := range t1 {
		if sc.VfMin != wantRanges[i][0] || sc.VfMax != wantRanges[i][1] {
			t.Errorf("%s range [%g,%g], want %v", sc.ID, sc.VfMin, sc.VfMax, wantRanges[i])
		}
	}
	reg := RegularityScenarios()
	if len(reg) != 5 {
		t.Fatalf("regularity scenarios = %d", len(reg))
	}
	for i, sc := range reg {
		if sc.VfMin != 30 || sc.VfMax != 50 {
			t.Errorf("%s must share range [30,50]", sc.ID)
		}
		if sc.ID != [5]string{"Ex.6", "Ex.7", "Ex.8", "Ex.9", "Ex.10"}[i] {
			t.Errorf("unexpected ID %s", sc.ID)
		}
	}
}

func TestModelForNarrowRange(t *testing.T) {
	if testing.Short() {
		t.Skip("model construction is slow")
	}
	sc := Table1Scenarios()[4] // [39, 41]
	m, err := ModelFor(sc)
	if err != nil {
		t.Fatal(err)
	}
	// A narrower disturbance yields a strengthened set at least as large:
	// X'_narrow ⊇ X'_wide.
	wide := model(t)
	ok, err := m.Sets.XPrime.Covers(wide.Sets.XPrime, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("narrow-W X' does not cover wide-W X'")
	}
}

func TestEncodeFeatures(t *testing.T) {
	enc := instance(t, Fig4Scenario().Profile).Encoder
	s := enc.Encode(mat.Vec{150, 40}, []mat.Vec{{1, 0}})
	if len(s) != 3 {
		t.Fatalf("feature dim = %d", len(s))
	}
	if math.Abs(s[0]) > 1e-12 || math.Abs(s[1]) > 1e-12 {
		t.Errorf("reference state must encode to zeros: %v", s)
	}
	if math.Abs(s[2]-1) > 1e-9 {
		t.Errorf("w=1 must encode to 1 with design range [30,50]: %v", s[2])
	}
}

func TestDRLEnvEpisode(t *testing.T) {
	env, err := plant.NewEnv(instance(t, Fig4Scenario().Profile), 10, plant.DefaultW1, plant.DefaultW2, plant.DefaultMemory)
	if err != nil {
		t.Fatal(err)
	}
	if env.StateDim() != 3 {
		t.Fatalf("state dim = %d", env.StateDim())
	}
	rng := rand.New(rand.NewSource(5))
	s, err := env.Reset(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 {
		t.Fatalf("reset state dim = %d", len(s))
	}
	steps := 0
	for {
		s2, r, done, err := env.Step(steps % 2)
		if err != nil {
			t.Fatal(err)
		}
		if r > 0 {
			t.Errorf("reward %v > 0; paper's reward is a penalty", r)
		}
		if len(s2) != 3 {
			t.Fatalf("state dim = %d", len(s2))
		}
		steps++
		if done {
			break
		}
	}
	if steps != 10 {
		t.Errorf("episode length = %d, want 10", steps)
	}
	// Stepping past the end errors.
	if _, _, _, err := env.Step(0); err == nil {
		t.Error("step past episode end succeeded")
	}
}

func TestDRLEnvRewardSemantics(t *testing.T) {
	env, err := plant.NewEnv(instance(t, traffic.Constant{V: 40}), 5, plant.DefaultW1, plant.DefaultW2, plant.DefaultMemory)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	if _, err := env.Reset(rng); err != nil {
		t.Fatal(err)
	}
	// A skip applies u = 0: energy penalty must be 0 whenever the monitor
	// does not intervene and the state stays in X'.
	_, r, _, err := env.Step(0)
	if err != nil {
		t.Fatal(err)
	}
	if r < -plant.DefaultW1-1e-9 {
		t.Errorf("skip reward %v below -w1; energy penalty charged on a skip", r)
	}
}

func TestTrainDRLSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("DRL training is slow")
	}
	inst := instance(t, Fig4Scenario().Profile)
	pol, stats, err := plant.TrainDRL(inst, plant.TrainConfig{Episodes: 6, Steps: 40, Seed: 3}, EpisodeSteps)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Episodes != 6 {
		t.Errorf("episodes = %d", stats.Episodes)
	}
	// The policy must be usable by the framework without violations.
	rng := rand.New(rand.NewSource(7))
	x0s, _ := inst.SampleInitialStates(1, rng)
	ep, err := inst.RunEpisode(pol, x0s[0], inst.Disturbances(rng, 40))
	if err != nil {
		t.Fatal(err)
	}
	if ep.Result.ViolationsX != 0 {
		t.Errorf("DRL policy violated X %d times", ep.Result.ViolationsX)
	}
}
