package oic

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"oic/internal/artifact"
	"oic/internal/poly"
	"oic/internal/trace"
)

// recordWith runs one seeded traced episode on eng — the same recipe as
// recordGolden, but against an arbitrary (e.g. artifact-loaded) engine.
func recordWith(t testing.TB, eng *Engine, seed int64, steps int) *Trace {
	t.Helper()
	x0, w, err := eng.DrawCase(seed, steps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartTrace(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepMany(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// loadedEngine round-trips eng through the full artifact pipeline:
// snapshot, encode, decode, load. Everything the loaded engine computes
// with has passed through the wire format.
func loadedEngine(t testing.TB, eng *Engine) *Engine {
	t.Helper()
	a, err := eng.Artifact()
	if err != nil {
		t.Fatalf("Artifact: %v", err)
	}
	b, err := EncodeArtifact(a)
	if err != nil {
		t.Fatalf("EncodeArtifact: %v", err)
	}
	a2, err := DecodeArtifact(b)
	if err != nil {
		t.Fatalf("DecodeArtifact: %v", err)
	}
	le, err := LoadEngine(a2)
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	return le
}

// goldenArtifactBytes reads the committed golden artifact of a golden
// case (internal/artifact's corpus, which pins the same six engines).
func goldenArtifactBytes(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "internal", "artifact", "testdata", "golden", name+artifact.Ext))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenArtifact decodes the committed golden artifact of a golden case.
func goldenArtifact(t testing.TB, name string) *Artifact {
	t.Helper()
	a, err := DecodeArtifact(goldenArtifactBytes(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestLoadEngineConformance is the tentpole acceptance gate: an engine
// loaded from its own encoded artifact replays every committed golden
// trace byte-identically and re-records the identical episode bytes —
// LoadEngine(Artifact(e)) is behaviorally indistinguishable from e while
// skipping set synthesis and DRL training entirely.
func TestLoadEngineConformance(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			built := goldenEngine(t, gc.cfg)
			loaded := loadedEngine(t, built)

			if got, want := loaded.Config().Fingerprint(), built.Config().Fingerprint(); got != want {
				t.Errorf("loaded fingerprint %q, want %q", got, want)
			}
			if loaded.PolicyName() != built.PolicyName() || loaded.ScenarioID() != built.ScenarioID() {
				t.Errorf("loaded identity %s/%s, want %s/%s",
					loaded.ScenarioID(), loaded.PolicyName(), built.ScenarioID(), built.PolicyName())
			}

			// Replay the committed golden trace on the loaded engine.
			tr := readGolden(t, gc.name)
			rep, err := loaded.Replay(tr, ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Diff.Identical {
				t.Errorf("loaded engine diverges from golden trace: flips=%d first=%d divergeStep=%d maxDiv=%g",
					rep.Diff.DecisionFlips, rep.Diff.FirstFlip, rep.Diff.DivergeStep, rep.Diff.MaxStateDivergence)
			}

			// A freshly built engine's artifact is the committed artifact
			// corpus entry: set synthesis, training and the codec all
			// reproduce it byte for byte.
			a, err := built.Artifact()
			if err != nil {
				t.Fatal(err)
			}
			ab, err := EncodeArtifact(a)
			if err != nil {
				t.Fatal(err)
			}
			if string(ab) != string(goldenArtifactBytes(t, gc.name)) {
				t.Errorf("built engine's artifact differs from the committed golden artifact")
			}

			// Re-record the episode on the loaded engine: byte-identical to
			// the committed corpus.
			b, err := trace.Encode(recordWith(t, loaded, gc.seed, gc.steps))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(want) {
				t.Errorf("loaded engine's episode differs from committed golden bytes (%d vs %d)", len(b), len(want))
			}

			// The loaded engine carries the full compiled state: skip budget
			// and (for DRL) training stats.
			wantMax, err := built.MaxSkipBudget()
			if err != nil {
				t.Fatal(err)
			}
			gotMax, err := loaded.MaxSkipBudget()
			if err != nil {
				t.Fatal(err)
			}
			if gotMax != wantMax {
				t.Errorf("max skip budget %d, want %d", gotMax, wantMax)
			}
			if gc.cfg.Policy == PolicyDRL && loaded.TrainStats().Episodes != built.TrainStats().Episodes {
				t.Errorf("train stats lost: %+v", loaded.TrainStats())
			}
		})
	}
}

// TestFingerprintCanonicalization pins the identity shared by the
// library, the oicd engine cache, and the artifact store: semantically
// equal configs fingerprint equal, distinct ones don't.
func TestFingerprintCanonicalization(t *testing.T) {
	base := Config{Plant: "acc"}
	same := []Config{
		{Plant: "acc", Policy: PolicyBangBang},
		{Plant: "acc", Scenario: "Fig.4"},
		{Plant: "acc", Memory: -3},
		{Plant: "acc", Train: TrainConfig{Episodes: 99}}, // non-DRL: training budget is irrelevant
	}
	for i, c := range same {
		if c.Fingerprint() != base.Fingerprint() {
			t.Errorf("config #%d fingerprint %q != base %q", i, c.Fingerprint(), base.Fingerprint())
		}
	}
	diff := []Config{
		{Plant: "thermo"},
		{Plant: "acc", Policy: PolicyAlwaysRun},
		{Plant: "acc", Scenario: "Ex.1"},
		{Plant: "acc", Policy: PolicyDRL, Train: TrainConfig{Episodes: 99}},
	}
	for i, c := range diff {
		if c.Fingerprint() == base.Fingerprint() {
			t.Errorf("config #%d fingerprint collides with base: %q", i, base.Fingerprint())
		}
	}
	// Canonical is idempotent.
	c := Config{Plant: "acc", Memory: -1}.Canonical()
	if c != c.Canonical() {
		t.Errorf("Canonical not idempotent: %+v vs %+v", c, c.Canonical())
	}
}

// TestArtifactSharesNoEngineState: the artifact Engine.Artifact returns
// is the caller's to edit. Writing its S_k chain and reward history must
// leave the engine, and so the next artifact's bytes, unchanged.
func TestArtifactSharesNoEngineState(t *testing.T) {
	eng := goldenEngine(t, goldenCases[1].cfg) // acc-drl: a chain and a trained history
	encoded := func() []byte {
		a, err := eng.Artifact()
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeArtifact(a)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := encoded()
	a, err := eng.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Chain) < 2 || len(a.Train.RewardHistory) == 0 {
		t.Fatalf("acc-drl artifact has %d chain sets and %d history entries; the test needs both",
			len(a.Chain), len(a.Train.RewardHistory))
	}
	a.Chain[1] = a.Chain[0].Scale(10)
	a.Train.RewardHistory[0]++
	if got := encoded(); !bytes.Equal(got, want) {
		t.Fatal("editing a returned artifact changed the engine's next artifact")
	}
}

// TestLoadEngineRejectsMismatch: internally inconsistent artifacts fail
// with typed errors instead of building a silently wrong engine.
func TestLoadEngineRejectsMismatch(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	eng := goldenEngine(t, goldenCases[1].cfg) // acc-drl
	fresh := func() *Artifact {
		a, err := eng.Artifact()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	a := fresh()
	a.Policy = nil // DRL config without a policy snapshot
	if _, err := LoadEngine(a); !errors.Is(err, ErrArtifactMismatch) {
		t.Errorf("missing policy: got %v, want ErrArtifactMismatch", err)
	}

	a = fresh()
	a.Meta.Plant = "no-such-plant"
	if _, err := LoadEngine(a); err == nil {
		t.Error("unknown plant accepted")
	}

	a = fresh()
	// Break the skip chain's monotone nesting: S_2 ⊄ S_1 after scaling.
	if len(a.Chain) >= 2 {
		a.Chain[1] = a.Chain[0].Scale(10)
		if _, err := LoadEngine(a); !errors.Is(err, ErrArtifactMismatch) {
			t.Errorf("broken chain: got %v, want ErrArtifactMismatch", err)
		}
	}

	a = fresh()
	a.Policy.WScale = []float64{12345} // wrong normalization for this scenario
	if _, err := LoadEngine(a); !errors.Is(err, ErrArtifactMismatch) {
		t.Errorf("wrong policy bounds: got %v, want ErrArtifactMismatch", err)
	}

	// State bounds for a third state the 2-state thermostat does not have,
	// with the first layer widened to match: internally consistent, but
	// the first decide would feed a 5-wide layer a 4-long feature vector.
	a = goldenArtifact(t, "thermo-drl")
	p := a.Policy
	p.XCenter = append(p.XCenter, 0)
	p.XScale = append(p.XScale, 1)
	rows, cols := p.Sizes[1], p.Sizes[0]
	wide := make([]float64, 0, rows*(cols+1))
	for r := 0; r < rows; r++ {
		wide = append(append(wide, p.Weights[0][r*cols:(r+1)*cols]...), 0)
	}
	p.Weights[0], p.Sizes[0] = wide, cols+1
	if err := a.Validate(); err != nil {
		t.Fatalf("widened artifact should pass the codec's own checks: %v", err)
	}
	if _, err := LoadEngine(a); !errors.Is(err, ErrArtifactMismatch) {
		t.Errorf("policy bounds wider than the plant: got %v, want ErrArtifactMismatch", err)
	}

	// Three states for the 2-state thermostat, with 3-D sets and no chain:
	// the codec's own checks pass, so the load must name the wrong
	// dimension.
	a = goldenArtifact(t, "thermo-always-run")
	box := poly.Box([]float64{-1, -1, -1}, []float64{1, 1, 1})
	a.NX, a.Chain = 3, nil
	a.Sets = artifact.Sets{X: box, XI: box, XPrime: box}
	if err := a.Validate(); err != nil {
		t.Fatalf("3-state artifact should pass the codec's own checks: %v", err)
	}
	if _, err := LoadEngine(a); !errors.Is(err, ErrArtifactMismatch) {
		t.Errorf("wrong state dimension: got %v, want ErrArtifactMismatch", err)
	}
}
