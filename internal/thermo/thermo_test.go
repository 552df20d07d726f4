package thermo

import (
	"math"
	"math/rand"
	"testing"

	"oic/internal/core"
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

func TestWeatherTraceStaysInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sc := range scenarios() {
		w := sc.Weather.Trace(rng, 500)
		for i, wt := range w {
			if math.Abs(wt[0]) > WTempMax+1e-12 || math.Abs(wt[1]) > WCoreMax+1e-12 {
				t.Fatalf("%s: disturbance %v at step %d outside design box", sc.ID, wt, i)
			}
		}
	}
}

func TestWeatherTraceDeterministic(t *testing.T) {
	we := scenarios()[2].Weather
	a := we.Trace(rand.New(rand.NewSource(5)), 50)
	b := we.Trace(rand.New(rand.NewSource(5)), 50)
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatalf("trace differs at step %d for identical seeds", i)
		}
	}
}

func TestBangBangSavesEnergyWithoutViolations(t *testing.T) {
	var p Plant
	inst, err := p.Instantiate(p.Headline(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	x0s, err := inst.SampleInitialStates(3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, x0 := range x0s {
		w := inst.Disturbances(rng, EpisodeSteps)
		always, err := inst.RunEpisode(core.AlwaysRun{}, x0, w)
		if err != nil {
			t.Fatal(err)
		}
		bang, err := inst.RunEpisode(core.BangBang{}, x0, w)
		if err != nil {
			t.Fatal(err)
		}
		if always.Result.ViolationsX != 0 || bang.Result.ViolationsX != 0 {
			t.Fatalf("violations: always %d, bang %d", always.Result.ViolationsX, bang.Result.ViolationsX)
		}
		if bang.Cost >= always.Cost {
			t.Errorf("bang-bang cost %v not below always-run %v", bang.Cost, always.Cost)
		}
		if bang.Result.Skips == 0 {
			t.Error("bang-bang never skipped")
		}
	}
}

func TestScenarioLadderWellFormed(t *testing.T) {
	var p Plant
	ladders := p.Ladders()
	if len(ladders) != 1 || len(ladders[0].Scenarios) != 4 {
		t.Fatalf("ladders = %+v", ladders)
	}
	seen := map[string]bool{}
	for _, sc := range ladders[0].Scenarios {
		if sc.ID == "" || sc.Description == "" || seen[sc.ID] {
			t.Errorf("bad or duplicate scenario %+v", sc)
		}
		seen[sc.ID] = true
		if _, err := p.Instantiate(sc, nil); err != nil {
			t.Errorf("Instantiate(%s): %v", sc.ID, err)
		}
	}
	if !seen[p.Headline().ID] {
		t.Error("headline scenario not in the ladder")
	}
}
