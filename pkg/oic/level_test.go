package oic

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// TestNonFiniteStateIsUnsafe steps a thermo-drl session from the golden
// artifact with a finite but huge disturbance, w = (1e308, −1e308): its
// state overflows to (1e308, −1e308) and then (+Inf, −Inf). A non-finite
// state is outside every set, so from the second step on the monitor
// reads unsafe and forces κ, and every successor counts as a violation.
// At (+Inf, −Inf) thermo's affine κ returns NaN, which is a κ failure
// (ErrInfeasible): that forced step closes the session, and the episode
// before it exports and audits with its violations. A NaN start is
// refused, and the engine's level and skip budget read it as unsafe.
func TestNonFiniteStateIsUnsafe(t *testing.T) {
	eng, err := LoadEngine(goldenArtifact(t, "thermo-drl"))
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	if _, err := eng.NewSession([]float64{nan, 0}); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("NewSession(NaN, 0): %v, want ErrUnsafe", err)
	}
	if lv, _ := eng.Level([]float64{nan, 0}); lv != "unsafe" {
		t.Fatalf("Level(NaN, 0) = %q, want unsafe", lv)
	}
	if k, _ := eng.SkipBudget([]float64{nan, 0}); k != 0 {
		t.Fatalf("SkipBudget(NaN, 0) = %d, want 0", k)
	}

	x0s, err := eng.SampleInitialStates(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession(x0s[0])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartTrace(0); err != nil {
		t.Fatal(err)
	}
	ctx, w := context.Background(), []float64{1e308, -1e308}
	steps := 0
	for ; ; steps++ {
		r, err := s.Step(ctx, w)
		if err != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("step %d: %v, want ErrInfeasible for κ's non-finite output", steps, err)
			}
			break
		}
		if steps >= 1 && (r.Level != "unsafe" || !r.Ran || !r.Forced) {
			t.Fatalf("step %d from a state outside X: level %s ran %v forced %v, want a forced compute at unsafe", steps, r.Level, r.Ran, r.Forced)
		}
		if steps == 6 {
			t.Fatal("no step failed in 7: the case tests nothing")
		}
	}
	if x := s.State(); !math.IsInf(x[0], 1) || !math.IsInf(x[1], -1) {
		t.Fatalf("the failed step was at %v, want (+Inf, -Inf)", x)
	}
	if _, err := s.Step(ctx, w); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("a step after the failed one: %v, want ErrSessionClosed", err)
	}
	info := s.Info()
	if info.Level != "unsafe" || info.T != steps || info.Violations != steps {
		t.Fatalf("after the failed step: level %s, t %d, %d violations; want unsafe, %d and one per step", info.Level, info.T, info.Violations, steps)
	}

	tr, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("the episode before the failed step does not export: %v", err)
	}
	back, err := DecodeTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.AuditTrace(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Steps) != steps || rep.Clean || countKind(rep, "safety-violation") != steps {
		t.Fatalf("audit of %d exported steps: clean %v, findings %+v; want %d steps, each a safety violation", len(back.Steps), rep.Clean, rep.Findings, steps)
	}
}

// countKind counts an audit's findings of one kind.
func countKind(rep *AuditReport, kind string) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Kind == kind {
			n++
		}
	}
	return n
}

// TestAuditFlagsNonFiniteTrace audits the episode a thermo-drl session
// recorded before non-finite states classified as unsafe: from a NaN
// state the monitor read X′ and the DQN skipped, so every step is a
// zero-input skip to (NaN, NaN). Each successor is outside X and each
// skip left X′.
func TestAuditFlagsNonFiniteTrace(t *testing.T) {
	eng, err := LoadEngine(goldenArtifact(t, "thermo-drl"))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 4
	tr := recordWith(t, eng, 1, steps)
	nan := math.NaN()
	tr.X0 = []float64{nan, nan}
	for i := range tr.Steps {
		st := &tr.Steps[i]
		st.Ran, st.Forced, st.Level = false, false, 0 // 0 is X′
		st.W, st.U, st.X = []float64{0, 0}, []float64{0}, []float64{nan, nan}
	}
	tr.Energy = 0
	rep, err := eng.AuditTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, f := range rep.Findings {
		kinds[f.Kind]++
	}
	if rep.Clean || kinds["safety-violation"] != steps || kinds["monitor-inconsistency"] != steps {
		t.Fatalf("audit: clean %v, findings by kind %v; want a safety violation and a monitor inconsistency at each of %d steps", rep.Clean, kinds, steps)
	}
}

// TestResumedSessionLevel: a session replayed to its head from a trace,
// as journal recovery does, reports the monitor's level of its state.
func TestResumedSessionLevel(t *testing.T) {
	eng, err := LoadEngine(goldenArtifact(t, "thermo-drl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		tr := recordWith(t, eng, seed, 40)
		s, err := eng.ResumeSession(tr, ResumeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		info := s.Info()
		want, _ := eng.Level(info.X)
		if info.Level != want || info.T != 40 {
			t.Fatalf("seed %d: resumed at t=%d with level %s, monitor says %s", seed, info.T, info.Level, want)
		}
		s.Close()
	}
}

// TestFleetMemberGetsDuringTicks reads members while a four-worker fleet
// ticks (run it under -race): each read sees a member between ticks, its
// level the monitor's verdict on its state.
func TestFleetMemberGetsDuringTicks(t *testing.T) {
	eng, err := LoadEngine(goldenArtifact(t, "thermo-drl"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := eng.NewFleet(FleetConfig{ComputeBudget: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x0s, err := eng.SampleInitialStates(5, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, x0 := range x0s {
		if _, err := f.Admit(x0); err != nil {
			t.Fatal(err)
		}
	}
	ids := f.IDs()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				m, err := f.Member(ids[i%len(ids)])
				if err != nil {
					t.Error(err)
					return
				}
				if want, _ := eng.Level(m.X); m.Level != want {
					t.Errorf("member %d at t=%d: level %s, monitor says %s", m.ID, m.T, m.Level, want)
					return
				}
			}
		}(g)
	}
	ws := TickWS{}
	for tick := 0; tick < 40; tick++ {
		for k, id := range ids {
			ws[id] = []float64{0.4 * math.Sin(float64(tick+k)), 0}
		}
		if _, err := f.Tick(context.Background(), ws); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
