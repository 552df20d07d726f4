// Package exp is the plant-agnostic experiment harness: it regenerates
// every table and figure of the paper's evaluation (Section IV) on any
// registered plant — the savings-distribution experiment of Fig. 4, the
// Section IV-A computation-time analysis, and Table-I-style scenario-
// ladder sweeps (Fig. 5 / Fig. 6). The ACC case study reproduces the
// paper's numbers; thermo, orbit, and any future plant.Plant get the same
// pipeline for free.
//
// Episodes are evaluated in parallel across a bounded set of workers
// (sched.FanOut); each case replays the same initial state and
// disturbance trace against every approach, so comparisons are paired.
// Every case is seeded individually and writes its own slot, and the
// experiments fold the cases in index order, so results are independent
// of the worker count; memory is O(cases), about 120 B per case.
//
// The harness is a client of the public pkg/oic facade — the same engines
// (compiled safety sets, parametric LP, trained policy) that oicd serves
// over HTTP regenerate the paper's figures here, so the served runtime and
// the published numbers can never drift apart. Each experiment fills the
// pkg/oic report `oic -json` emits, and the text and CSV renderers read
// that same value.
package exp

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"oic/internal/plant"
	"oic/internal/sched"
	"oic/pkg/oic"
)

// Options tunes experiment size. The zero value reproduces the paper's
// scale (500 cases, the plant's default episode length) with a fixed seed.
type Options struct {
	Cases         int   // evaluation cases per scenario (default 500)
	Steps         int   // steps per episode (default: plant's EpisodeSteps)
	Seed          int64 // RNG seed (default 1)
	TrainEpisodes int   // DRL training episodes per scenario (default 500)
	Workers       int   // parallel evaluation workers (default GOMAXPROCS)
}

func (o Options) withDefaults(p plant.Plant) Options {
	if o.Cases == 0 {
		o.Cases = 500
	}
	if o.Steps == 0 {
		o.Steps = p.EpisodeSteps()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TrainEpisodes == 0 {
		o.TrainEpisodes = 500
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Case is one paired evaluation of the three approaches on an identical
// (x0, disturbance trace) episode.
type Case struct {
	CostRM, CostBB, CostDRL       float64 // plant cost metric (fuel, kWh, Δv)
	EnergyRM, EnergyBB, EnergyDRL float64 // Σ‖u‖₁
	SkipsBB, SkipsDRL             int
	ForcedDRL                     int
	Violations                    int // across all runs (Theorem 1: must be 0)

	CtrlTimeRM   time.Duration // κ compute time in the always-run baseline
	CtrlTimeDRL  time.Duration
	OverheadDRL  time.Duration
	CtrlCallsRM  int
	CtrlCallsDRL int
}

// saving returns the relative saving of other vs. base in percent,
// guarding against a degenerate zero-cost baseline episode (which would
// otherwise poison histograms and means with NaN/Inf).
func saving(base, other float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - other) / base
}

// SavingBB returns the bang-bang cost saving vs. the always-run baseline
// in percent (0 for a degenerate zero-cost baseline).
func (c *Case) SavingBB() float64 { return saving(c.CostRM, c.CostBB) }

// SavingDRL returns the DRL cost saving vs. the always-run baseline in
// percent (0 for a degenerate zero-cost baseline).
func (c *Case) SavingDRL() float64 { return saving(c.CostRM, c.CostDRL) }

// EnergySavingBB returns the bang-bang Σ‖u‖₁ saving in percent.
func (c *Case) EnergySavingBB() float64 { return saving(c.EnergyRM, c.EnergyBB) }

// EnergySavingDRL returns the DRL Σ‖u‖₁ saving in percent.
func (c *Case) EnergySavingDRL() float64 { return saving(c.EnergyRM, c.EnergyDRL) }

// caseSeed derives an independent per-case RNG seed (splitmix64 finalizer)
// so cases can be generated on any worker in any order and still be
// byte-identical across worker counts.
func caseSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// engineFor binds one scenario to a pkg/oic engine with the options'
// training budget. The same facade the oicd server caches per plant backs
// every experiment run here.
func engineFor(p plant.Plant, scenarioID string, opt Options, policy string) (*oic.Engine, error) {
	return oic.NewEngine(oic.Config{
		Plant: p.Name(), Scenario: scenarioID, Policy: policy,
		Train: oic.TrainConfig{Episodes: opt.TrainEpisodes, Steps: opt.Steps, Seed: opt.Seed},
	})
}

// runCases evaluates opt.Cases paired episodes against eng across
// opt.Workers goroutines and returns them in index order. With withPolicy
// the engine's configured skipping policy (the trained DRL agent in the
// pipeline) runs as the third arm; otherwise its Case fields stay zero.
// On failure it returns the lowest-index case's error.
func runCases(eng *oic.Engine, withPolicy bool, opt Options) ([]Case, error) {
	n := max(opt.Cases, 0)
	cases := make([]Case, n)
	errs := make([]error, n)
	sched.FanOut(n, opt.Workers, func(i int) { cases[i], errs[i] = runCase(eng, withPolicy, opt, i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cases, nil
}

// runCase evaluates case i.
func runCase(eng *oic.Engine, withPolicy bool, opt Options, i int) (Case, error) {
	x0, w, err := eng.DrawCase(caseSeed(opt.Seed, i), opt.Steps)
	if err != nil {
		return Case{}, fmt.Errorf("exp: case %d: %w", i, err)
	}

	var c Case
	epRM, err := eng.RunEpisode(oic.PolicyAlwaysRun, x0, w)
	if err != nil {
		return Case{}, fmt.Errorf("exp: case %d: %w", i, err)
	}
	epBB, err := eng.RunEpisode(oic.PolicyBangBang, x0, w)
	if err != nil {
		return Case{}, fmt.Errorf("exp: case %d: %w", i, err)
	}
	c.CostRM, c.EnergyRM = epRM.Cost, epRM.Energy
	c.CostBB, c.EnergyBB = epBB.Cost, epBB.Energy
	c.SkipsBB = epBB.Skips
	c.Violations = epRM.Violations + epBB.Violations
	c.CtrlTimeRM = epRM.CtrlTime
	c.CtrlCallsRM = epRM.ControllerCalls
	if withPolicy {
		epDR, err := eng.RunEpisode("", x0, w)
		if err != nil {
			return Case{}, fmt.Errorf("exp: case %d: %w", i, err)
		}
		c.CostDRL, c.EnergyDRL = epDR.Cost, epDR.Energy
		c.SkipsDRL = epDR.Skips
		c.ForcedDRL = epDR.Forced
		c.Violations += epDR.Violations
		c.CtrlTimeDRL = epDR.CtrlTime
		c.OverheadDRL = epDR.OverheadTime
		c.CtrlCallsDRL = epDR.ControllerCalls
	}
	return c, nil
}

// savingEdges are Fig. 4's 10 %-wide bins over the full attainable range:
// a saving vs. a non-negative baseline cost cannot exceed 100 %, but
// plants differ in where their mass lands (acc ~10–40 %, thermo's
// bang-bang ~80–90 %). Negative savings (e.g. under-trained agents) land
// in Underflow and are rendered explicitly; exactly 100 % (zero-cost run)
// in Overflow.
var savingEdges = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

func newSavingHist() oic.Histogram {
	return oic.Histogram{
		Edges:  append([]float64(nil), savingEdges...),
		Counts: make([]int, len(savingEdges)-1),
	}
}

// addSample counts x into h: a value below the first edge is underflow,
// one at or above the last edge overflow, and one equal to an inner edge
// falls in the bin that edge opens.
func addSample(h *oic.Histogram, x float64) {
	switch {
	case x < h.Edges[0]:
		h.Underflow++
	case x >= h.Edges[len(h.Edges)-1]:
		h.Overflow++
	default:
		h.Counts[sort.Search(len(h.Counts), func(i int) bool { return x < h.Edges[i+1] })]++
	}
}

// Fig4Result is the savings-distribution experiment (the paper's Figure 4
// on the ACC plant): the distribution of cost savings of bang-bang and
// DRL-based opportunistic intermittent control over the always-run
// baseline, across randomly generated cases. Its report is what
// `oic -json` emits; the text and CSV reports also read the rest.
type Fig4Result struct {
	oic.Fig4Report
	Description string    // the headline scenario's description
	BBSavings   []float64 // per-case savings (%), in case order
	DRLSavings  []float64
}

// Fig4 trains the DRL agent on the plant's headline scenario and evaluates
// the three approaches on paired random cases. On acc the paper reports
// mean savings of 16.28 % (bang-bang) and 23.83 % (DRL) and 79.4 skipped
// steps per 100; Theorem 1 requires 0 violations.
func Fig4(p plant.Plant, opt Options) (*Fig4Result, error) {
	opt = opt.withDefaults(p)
	sc := p.Headline()
	eng, err := engineFor(p, sc.ID, opt, oic.PolicyDRL)
	if err != nil {
		return nil, fmt.Errorf("exp: Fig4(%s): %w", p.Name(), err)
	}
	cases, err := runCases(eng, true, opt)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{
		Fig4Report: oic.Fig4Report{
			Kind: "fig4", Plant: p.Name(), CostLabel: p.CostLabel(), Scenario: sc.ID,
			Cases: len(cases), Steps: opt.Steps, Seed: opt.Seed,
			BBHist: newSavingHist(), DRLHist: newSavingHist(),
			TrainEpisodes: eng.TrainStats().Episodes,
		},
		Description: sc.Description,
		BBSavings:   make([]float64, len(cases)),
		DRLSavings:  make([]float64, len(cases)),
	}
	for i := range cases {
		c := &cases[i]
		sb, sd := c.SavingBB(), c.SavingDRL()
		res.BBSavings[i], res.DRLSavings[i] = sb, sd
		addSample(&res.BBHist, sb)
		addSample(&res.DRLHist, sd)
		res.BBMeanPct += sb
		res.DRLMeanPct += sd
		res.BBEnergyPct += c.EnergySavingBB()
		res.DRLEnergyPct += c.EnergySavingDRL()
		res.SkipsPer100 += float64(c.SkipsDRL) * 100 / float64(opt.Steps)
		res.Violations += c.Violations
	}
	if n := float64(res.Cases); n > 0 {
		res.BBMeanPct /= n
		res.DRLMeanPct /= n
		res.BBEnergyPct /= n
		res.DRLEnergyPct /= n
		res.SkipsPer100 /= n
	}
	return res, nil
}

// SeriesResult is a scenario-ladder sweep (the paper's Fig. 5 / Fig. 6):
// the report `oic -json` emits plus the ladder's title and paper note,
// which head the text report.
type SeriesResult struct {
	oic.SeriesReport
	Title     string
	PaperNote string
}

// Sweep trains and evaluates one scenario per ladder rung.
func Sweep(p plant.Plant, ladder plant.Ladder, opt Options) (*SeriesResult, error) {
	opt = opt.withDefaults(p)
	res := &SeriesResult{
		SeriesReport: oic.SeriesReport{
			Kind: "series", Plant: p.Name(), CostLabel: p.CostLabel(), Ladder: ladder.Name,
			Cases: opt.Cases, Steps: opt.Steps, Seed: opt.Seed,
		},
		Title:     ladder.Title,
		PaperNote: ladder.PaperNote,
	}
	for _, sc := range ladder.Scenarios {
		eng, err := engineFor(p, sc.ID, opt, oic.PolicyDRL)
		if err != nil {
			return nil, fmt.Errorf("exp: scenario %s: %w", sc.ID, err)
		}
		cases, err := runCases(eng, true, opt)
		if err != nil {
			return nil, fmt.Errorf("exp: scenario %s: %w", sc.ID, err)
		}
		pt := oic.SeriesPointReport{ID: sc.ID, Detail: sc.Detail}
		for i := range cases {
			c := &cases[i]
			pt.DRLSavingPct += c.SavingDRL()
			pt.BBSavingPct += c.SavingBB()
			pt.DRLEnergyPct += c.EnergySavingDRL()
			pt.SkipsPer100 += float64(c.SkipsDRL) * 100 / float64(opt.Steps)
			pt.Violations += c.Violations
		}
		if n := len(cases); n > 0 {
			pt.DRLSavingPct /= float64(n)
			pt.BBSavingPct /= float64(n)
			pt.DRLEnergyPct /= float64(n)
			pt.SkipsPer100 /= float64(n)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// SweepLadder runs Sweep on the plant's ladder with the given name ("" =
// the first, most important ladder).
func SweepLadder(p plant.Plant, name string, opt Options) (*SeriesResult, error) {
	ladders := p.Ladders()
	if len(ladders) == 0 {
		return nil, fmt.Errorf("exp: plant %s has no scenario ladders", p.Name())
	}
	if name == "" {
		return Sweep(p, ladders[0], opt)
	}
	for _, l := range ladders {
		if l.Name == name {
			return Sweep(p, l, opt)
		}
	}
	return nil, fmt.Errorf("exp: plant %s has no ladder %q", p.Name(), name)
}

// Timing is the Section IV-A computation-time analysis, generalized: it
// measures the per-step cost of κ against the monitor+policy overhead on
// the headline scenario and applies the paper's accounting
//
//	saving = (T_κ·n − (T_mon·n + T_κ·(n − skips))) / (T_κ·n).
//
// On acc the paper reports T_κ = 0.12 s (RMPC on their i7), T_mon =
// 0.02 s (monitor + DQN inference), 79.4 skipped steps per 100 and a
// saving of ≈ 60 %.
func Timing(p plant.Plant, opt Options) (*oic.TimingReport, error) {
	opt = opt.withDefaults(p)
	eng, err := engineFor(p, p.Headline().ID, opt, oic.PolicyDRL)
	if err != nil {
		return nil, fmt.Errorf("exp: Timing(%s): %w", p.Name(), err)
	}
	cases, err := runCases(eng, true, opt)
	if err != nil {
		return nil, err
	}
	var ctrlRM, overheadDRL time.Duration
	var callsRM, steps, skips int
	for i := range cases {
		c := &cases[i]
		ctrlRM += c.CtrlTimeRM
		callsRM += c.CtrlCallsRM
		overheadDRL += c.OverheadDRL
		steps += opt.Steps
		skips += c.SkipsDRL
	}
	if callsRM == 0 || steps == 0 {
		return nil, fmt.Errorf("exp: Timing: no data")
	}
	ctrl := ctrlRM / time.Duration(callsRM)
	monitor := overheadDRL / time.Duration(steps)
	skipsPer100 := float64(skips) * 100 / float64(steps)
	tk := ctrl.Seconds()
	tm := monitor.Seconds()
	n := 100.0
	run := n - skipsPer100
	return &oic.TimingReport{
		Kind:             "timing",
		Plant:            p.Name(),
		Cases:            opt.Cases,
		CtrlPerStepNS:    ctrl.Nanoseconds(),
		MonitorPerStepNS: monitor.Nanoseconds(),
		SkipsPer100:      skipsPer100,
		ComputeSavingPct: 100 * (tk*n - (tm*n + tk*run)) / (tk * n),
	}, nil
}

// Table1 reproduces Table I — the plant's primary scenario ladder
// annotated with measured savings from its sweep.
func Table1(p plant.Plant, opt Options) (*oic.Table1Report, error) {
	series, err := SweepLadder(p, "", opt)
	if err != nil {
		return nil, err
	}
	return Table1FromSeries(series), nil
}

// Table1FromSeries derives Table I from an existing sweep, avoiding a
// second training/evaluation pass.
func Table1FromSeries(series *SeriesResult) *oic.Table1Report {
	out := &oic.Table1Report{Kind: "table1", Plant: series.Plant}
	for _, pt := range series.Points {
		out.Rows = append(out.Rows, oic.Table1RowReport{
			ID: pt.ID, Detail: pt.Detail, DRLSavingPct: pt.DRLSavingPct, BBSavingPct: pt.BBSavingPct,
		})
	}
	return out
}
