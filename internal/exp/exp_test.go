package exp

import (
	"strings"
	"testing"

	"oic/internal/plant"
	"oic/pkg/oic"

	// Register the case studies the tests sweep over.
	_ "oic/internal/acc"
	_ "oic/internal/orbit"
	_ "oic/internal/thermo"
)

// smallOpt keeps integration tests fast; full-scale runs live behind the
// CLI and benchmarks.
func smallOpt() Options {
	return Options{Cases: 6, Steps: 40, Seed: 2, TrainEpisodes: 4}
}

func accPlant(t *testing.T) plant.Plant {
	t.Helper()
	p, err := plant.Get("acc")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// headlineEngine builds the harness's facade engine for the headline
// scenario with the given skipping policy as the third experiment arm.
func headlineEngine(t *testing.T, p plant.Plant, policy string, opt Options) *oic.Engine {
	t.Helper()
	eng, err := engineFor(p, p.Headline().ID, opt, policy)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func collectCases(t *testing.T, eng *oic.Engine, withPolicy bool, opt Options) []Case {
	t.Helper()
	out, err := runCases(eng, withPolicy, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunCasesPairedAndSafe(t *testing.T) {
	opt := smallOpt()
	eng := headlineEngine(t, accPlant(t), oic.PolicyBangBang, opt)
	cases := collectCases(t, eng, true, opt)
	if len(cases) != 6 {
		t.Fatalf("cases = %d", len(cases))
	}
	for i, c := range cases {
		if c.Violations != 0 {
			t.Errorf("case %d: %d violations", i, c.Violations)
		}
		if c.CostRM <= 0 || c.CostBB <= 0 {
			t.Errorf("case %d: cost %v/%v", i, c.CostRM, c.CostBB)
		}
		if c.CtrlCallsRM != 40 {
			t.Errorf("case %d: always-run controller calls = %d, want 40", i, c.CtrlCallsRM)
		}
	}
}

func TestRunCasesDeterministicAcrossWorkerCounts(t *testing.T) {
	opt1 := smallOpt()
	opt1.Workers = 1
	opt8 := smallOpt()
	opt8.Workers = 8
	eng := headlineEngine(t, accPlant(t), oic.PolicyBangBang, opt1)
	a := collectCases(t, eng, false, opt1)
	b := collectCases(t, eng, false, opt8)
	for i := range a {
		if a[i].CostBB != b[i].CostBB || a[i].SkipsBB != b[i].SkipsBB {
			t.Fatalf("case %d differs across worker counts", i)
		}
	}
}

func TestSavingGuardsDegenerateBaseline(t *testing.T) {
	c := &Case{CostRM: 0, CostBB: 3, CostDRL: 5, EnergyRM: 0, EnergyBB: 1, EnergyDRL: 1}
	for name, got := range map[string]float64{
		"SavingBB":        c.SavingBB(),
		"SavingDRL":       c.SavingDRL(),
		"EnergySavingBB":  c.EnergySavingBB(),
		"EnergySavingDRL": c.EnergySavingDRL(),
	} {
		if got != 0 {
			t.Errorf("%s = %v with zero baseline, want 0", name, got)
		}
	}
	c2 := &Case{CostRM: 10, CostBB: 8}
	if got := c2.SavingBB(); got != 20 {
		t.Errorf("SavingBB = %v, want 20", got)
	}
}

func TestFig4SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	r, err := Fig4(accPlant(t), smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r.Violations != 0 {
		t.Errorf("violations = %d", r.Violations)
	}
	if r.Cases != 6 || len(r.BBSavings) != 6 || len(r.DRLSavings) != 6 {
		t.Fatalf("cases %d, savings slices: %d/%d", r.Cases, len(r.BBSavings), len(r.DRLSavings))
	}
	if got := r.BBHist.Total() + r.BBHist.Underflow + r.BBHist.Overflow; got != 6 {
		t.Errorf("histogram total = %d", got)
	}
	out := RenderFig4(r)
	for _, want := range []string{"Figure 4", "bang-bang", "opportunistic-DRL", "Theorem 1", "acc"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	csv := CSVFig4(r)
	if strings.Count(csv, "\n") != 7 { // header + 6 rows
		t.Errorf("csv rows:\n%s", csv)
	}
}

// TestFig4DeterministicAcrossWorkerCounts is the determinism claim of
// cmd/oic's doc comment, end to end: the full experiment — DRL training
// included — produces identical results for 1 and 4 workers at a fixed
// seed.
func TestFig4DeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := accPlant(t)
	opt1 := smallOpt()
	opt1.Workers = 1
	opt4 := smallOpt()
	opt4.Workers = 4
	a, err := Fig4(p, opt1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig4(p, opt4)
	if err != nil {
		t.Fatal(err)
	}
	if a.BBMean != b.BBMean || a.DRLMean != b.DRLMean ||
		a.BBEnergy != b.BBEnergy || a.DRLEnergy != b.DRLEnergy ||
		a.SkipsDRL != b.SkipsDRL || a.Violations != b.Violations {
		t.Fatalf("Fig4 differs across worker counts:\n1 worker: %+v\n4 workers: %+v", a, b)
	}
	for i := range a.BBSavings {
		if a.BBSavings[i] != b.BBSavings[i] || a.DRLSavings[i] != b.DRLSavings[i] {
			t.Fatalf("per-case savings differ at case %d", i)
		}
	}
}

func TestTimingSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	r, err := Timing(accPlant(t), smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r.CtrlPerStep <= 0 || r.MonitorPerStep <= 0 {
		t.Errorf("timings: %v / %v", r.CtrlPerStep, r.MonitorPerStep)
	}
	if r.CtrlPerStep < r.MonitorPerStep {
		t.Errorf("κ (%v) should dominate the monitor+policy overhead (%v) on the RMPC plant", r.CtrlPerStep, r.MonitorPerStep)
	}
	// The derived saving follows the paper's accounting
	// saving = skip-rate − 100·T_mon/T_κ. With the warm-started RMPC, T_κ
	// is small enough that an under-trained low-skip run can legitimately
	// go slightly negative, so instead of positivity assert the bounds the
	// accounting implies: strictly below the skip rate (the monitor always
	// costs something) and above the skip rate minus the full monitor/κ
	// ratio implied by the (already asserted) T_κ ≥ T_mon, i.e. −100 %.
	if r.ComputeSaving >= r.SkipsPer100 {
		t.Errorf("compute saving %v%% not below skip rate %v%%", r.ComputeSaving, r.SkipsPer100)
	}
	if r.ComputeSaving <= r.SkipsPer100-100 {
		t.Errorf("compute saving %v%% below skip-rate−100 floor (skips %v)", r.ComputeSaving, r.SkipsPer100)
	}
	if !strings.Contains(RenderTiming(r), "computation-time saving") {
		t.Error("render missing summary")
	}
}

func TestSweepSingleScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := accPlant(t)
	ladder := p.Ladders()[0]
	ladder.Scenarios = ladder.Scenarios[:1]
	r, err := Sweep(p, ladder, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 1 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.Points[0].Violations != 0 {
		t.Errorf("violations = %d", r.Points[0].Violations)
	}
	out := RenderSeries(r)
	if !strings.Contains(out, "Ex.1") {
		t.Errorf("render:\n%s", out)
	}
	if !strings.Contains(CSVSeries(r), "Ex.1") {
		t.Error("csv missing scenario row")
	}
}

// TestCrossPlantFig4 runs a tiny headline experiment on every registered
// plant: the whole harness — training included — must work for each, with
// zero safety violations (Theorem 1 is plant-agnostic).
func TestCrossPlantFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	for _, name := range plant.Names() {
		t.Run(name, func(t *testing.T) {
			p, err := plant.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Cases: 3, Steps: 25, Seed: 3, TrainEpisodes: 2}
			r, err := Fig4(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if r.Violations != 0 {
				t.Errorf("violations = %d", r.Violations)
			}
			if r.Cases != 3 {
				t.Errorf("cases = %d", r.Cases)
			}
			if !strings.Contains(RenderFig4(r), p.CostLabel()) {
				t.Error("render missing cost label")
			}
		})
	}
}

func TestSweepLadderLookup(t *testing.T) {
	p := accPlant(t)
	if _, err := SweepLadder(p, "no-such-ladder", Options{Cases: 1, Steps: 5, TrainEpisodes: 1}); err == nil {
		t.Fatal("unknown ladder should fail")
	}
}

func TestTable1FromSeries(t *testing.T) {
	p := accPlant(t)
	scs := p.Ladders()[0].Scenarios
	series := &SeriesResult{Points: []SeriesPoint{
		{Scenario: scs[0], DRLSaving: 7.5, BBSaving: 5.5},
		{Scenario: scs[1], DRLSaving: 8.5, BBSaving: 6.0},
	}}
	rows := Table1FromSeries(series)
	if len(rows) != 2 || rows[0].DRLSaving != 7.5 || rows[1].Scenario.ID != "Ex.2" {
		t.Fatalf("rows = %+v", rows)
	}
	out := RenderTable1(rows)
	for _, want := range []string{"Table I", "Ex.1", "[30, 50]", "7.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
