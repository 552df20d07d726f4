// Package main_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md §4 for the
// experiment index), plus micro-benchmarks of the per-step costs the
// Section IV-A timing analysis relies on, the ablation benches of
// DESIGN.md §5, and cross-plant benches over the scenario-engine registry.
//
// The table/figure benches run a reduced-but-faithful version of each
// experiment per iteration (training included where the experiment trains)
// and report the headline metrics via b.ReportMetric, so `go test -bench`
// output doubles as a results table. Full-scale runs (500 cases, as in the
// paper) are produced by `go run ./cmd/oic all -cases 500`.
package main_test

import (
	"math/rand"
	"testing"

	"oic/internal/acc"
	"oic/internal/controller"
	"oic/internal/core"
	"oic/internal/exp"
	"oic/internal/mat"
	"oic/internal/plant"
	"oic/internal/reach"

	_ "oic/internal/orbit"
	_ "oic/internal/thermo"
)

// benchOpt is the reduced experiment size used per benchmark iteration.
// The saving metrics it reports verify the regeneration machinery, not the
// paper's numbers: at 40 training episodes the DQN is deliberately
// under-trained so one iteration stays fast. Full-scale regeneration with
// converged agents is `go run ./cmd/oic all -cases 500 -train 500`, whose
// results are recorded in EXPERIMENTS.md.
func benchOpt() exp.Options {
	return exp.Options{Cases: 24, Steps: 100, Seed: 1, TrainEpisodes: 40}
}

func mustPlant(b *testing.B, name string) plant.Plant {
	b.Helper()
	p, err := plant.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkFig4 regenerates Figure 4 (fuel-saving distribution of
// bang-bang and DRL skipping vs RMPC-only on the Eq. 8 sinusoid).
func BenchmarkFig4(b *testing.B) {
	p := mustPlant(b, "acc")
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig4(p, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if r.Violations != 0 {
			b.Fatalf("safety violations: %d", r.Violations)
		}
		b.ReportMetric(r.BBMean, "bb-fuel-saving-%")
		b.ReportMetric(r.DRLMean, "drl-fuel-saving-%")
		b.ReportMetric(r.SkipsDRL, "drl-skips/100")
	}
}

// BenchmarkTable1Fig5 regenerates Table I and Figure 5 (savings across the
// shrinking v_f ranges Ex.1–Ex.5). One scenario per iteration would skew
// metrics, so each iteration runs the full 5-scenario sweep.
func BenchmarkTable1Fig5(b *testing.B) {
	p := mustPlant(b, "acc")
	opt := benchOpt()
	opt.Cases = 10
	opt.TrainEpisodes = 25
	for i := 0; i < b.N; i++ {
		r, err := exp.SweepLadder(p, "range", opt)
		if err != nil {
			b.Fatal(err)
		}
		first := r.Points[0]
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(first.DRLSaving, "ex1-drl-saving-%")
		b.ReportMetric(last.DRLSaving, "ex5-drl-saving-%")
	}
}

// BenchmarkFig6 regenerates Figure 6 (savings across the regularity ladder
// Ex.6–Ex.10).
func BenchmarkFig6(b *testing.B) {
	p := mustPlant(b, "acc")
	opt := benchOpt()
	opt.Cases = 10
	opt.TrainEpisodes = 25
	for i := 0; i < b.N; i++ {
		r, err := exp.SweepLadder(p, "regularity", opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Points[0].DRLSaving, "ex6-drl-saving-%")
		b.ReportMetric(r.Points[4].DRLSaving, "ex10-drl-saving-%")
	}
}

// BenchmarkTimingAnalysis regenerates the Section IV-A computation-time
// study (RMPC per-step cost vs monitor+policy overhead, skip rate, and the
// derived computation saving).
func BenchmarkTimingAnalysis(b *testing.B) {
	p := mustPlant(b, "acc")
	for i := 0; i < b.N; i++ {
		r, err := exp.Timing(p, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ComputeSaving, "compute-saving-%")
		b.ReportMetric(float64(r.CtrlPerStep.Microseconds()), "rmpc-µs/step")
		b.ReportMetric(float64(r.MonitorPerStep.Microseconds()), "monitor-µs/step")
	}
}

// --- Cross-plant benches: the scenario engine over every registered plant. ---

// BenchmarkPlantConstruction measures the cost of acquiring each
// registered plant's headline instance. All three plants now amortize
// model construction: thermo and orbit share one scenario-independent
// model per process, and acc memoizes per v_f design range (its safety
// sets depend on the scenario), so after the first iteration this reports
// cache-hit cost everywhere.
func BenchmarkPlantConstruction(b *testing.B) {
	for _, name := range plant.Names() {
		p := mustPlant(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Instantiate(p.Headline()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlantEpisode measures one paired (always-run + bang-bang)
// evaluation episode per registered plant — the unit of work the
// experiment harness parallelizes — and reports the bang-bang skip rate.
func BenchmarkPlantEpisode(b *testing.B) {
	for _, name := range plant.Names() {
		p := mustPlant(b, name)
		b.Run(name, func(b *testing.B) {
			inst, err := p.Instantiate(p.Headline())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			x0s, err := inst.SampleInitialStates(16, rng)
			if err != nil {
				b.Fatal(err)
			}
			steps := p.EpisodeSteps()
			var skipRate float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x0 := x0s[i%len(x0s)]
				w := inst.Disturbances(rng, steps)
				if _, err := inst.RunEpisode(core.AlwaysRun{}, x0, w); err != nil {
					b.Fatal(err)
				}
				ep, err := inst.RunEpisode(core.BangBang{}, x0, w)
				if err != nil {
					b.Fatal(err)
				}
				if ep.Result.ViolationsX != 0 {
					b.Fatalf("violations: %d", ep.Result.ViolationsX)
				}
				skipRate = ep.Result.SkipRate()
			}
			b.ReportMetric(100*skipRate, "bb-skip-%")
		})
	}
}

// --- Micro-benchmarks: the per-step costs behind the timing analysis. ---

var benchModel *acc.Model

func sharedACCModel(b *testing.B) *acc.Model {
	b.Helper()
	if benchModel == nil {
		m, err := acc.NewModel(acc.Config{})
		if err != nil {
			b.Fatal(err)
		}
		benchModel = m
	}
	return benchModel
}

// BenchmarkRMPCStep measures one κR computation (a warm-started LP
// resolve over varying states): the paper's 0.12 s/step quantity on our
// solver and hardware.
func BenchmarkRMPCStep(b *testing.B) {
	m := sharedACCModel(b)
	rng := rand.New(rand.NewSource(3))
	pts, err := m.Sets.XPrime.Sample(64, rng.Float64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RMPC.Compute(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorAndPolicy measures the skip path: the three-level set
// membership check plus a DQN forward pass — the paper's 0.02 s/step
// quantity.
func BenchmarkMonitorAndPolicy(b *testing.B) {
	m := sharedACCModel(b)
	agent, _, err := m.TrainDRL(acc.Fig4Scenario().Profile, acc.TrainConfig{Episodes: 2, Steps: 20})
	if err != nil {
		b.Fatal(err)
	}
	policy := m.DRLPolicy(agent)
	monitor := core.NewMonitor(m.Sets)
	rng := rand.New(rand.NewSource(4))
	pts, err := m.Sets.XPrime.Sample(64, rng.Float64)
	if err != nil {
		b.Fatal(err)
	}
	w := []mat.Vec{{0.5, 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := pts[i%len(pts)]
		if monitor.Level(x) == core.InXPrime {
			policy.Decide(i, x, w)
		}
	}
}

// BenchmarkDQNInference isolates the neural-network forward pass.
func BenchmarkDQNInference(b *testing.B) {
	m := sharedACCModel(b)
	agent, _, err := m.TrainDRL(acc.Fig4Scenario().Profile, acc.TrainConfig{Episodes: 2, Steps: 20})
	if err != nil {
		b.Fatal(err)
	}
	s := m.Encode(mat.Vec{150, 40}, []mat.Vec{{0.5, 0}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Greedy(s)
	}
}

// BenchmarkSafetySetConstruction measures the offline cost of building XI
// (the RMPC feasible-set projection, Proposition 1) and X′.
func BenchmarkSafetySetConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := acc.NewModel(acc.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5). ---

// BenchmarkRCIMethods compares the two general routes to a robust control
// invariant set on the ACC plant: the RMPC feasible-set projection
// (Proposition 1) vs the maximal-RCI Pre-fixpoint.
func BenchmarkRCIMethods(b *testing.B) {
	m := sharedACCModel(b)
	b.Run("prop1-feasible-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rmpc, err := controller.NewRMPC(m.Sys, controller.RMPCConfig{
				Horizon: 10, StateWeight: 1, InputWeight: 0.1,
				XRef: mat.Vec{150, 40}, URef: mat.Vec{8},
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rmpc.FeasibleSet(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("maximal-rci-fixpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reach.MaximalRCI(m.Sys, reach.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMonitorAblation quantifies the price of soundness: skipping
// gated on X′ (sound, Theorem 1) vs gated on XI (unsound — violations can
// and do occur). Reported metrics are energy saving and violation counts.
func BenchmarkMonitorAblation(b *testing.B) {
	m := sharedACCModel(b)
	sc := acc.Fig4Scenario()
	// Unsound variant: pretend X' = XI, i.e. skip anywhere inside XI.
	unsound := core.SafetySets{X: m.Sets.X, XI: m.Sets.XI, XPrime: m.Sets.XI}
	rng := rand.New(rand.NewSource(9))
	x0s, err := m.SampleInitialStates(8, rng)
	if err != nil {
		b.Fatal(err)
	}
	run := func(sets core.SafetySets) (energy float64, violations int) {
		fw, err := core.NewFramework(m.Sys, m.RMPC, sets, core.BangBang{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, x0 := range x0s {
			vf := sc.Profile.Generate(rng, 100)
			sess, err := fw.NewSession(x0)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range vf {
				if _, err := sess.Step(m.Disturbance(v)); err != nil {
					// The unsound variant can drive κ infeasible; count it
					// as a violation and abandon the episode.
					violations++
					break
				}
			}
			energy += sess.Result.Energy
			violations += sess.Result.ViolationsX
		}
		return energy, violations
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eSound, vSound := run(m.Sets)
		eUnsound, vUnsound := run(unsound)
		if vSound != 0 {
			b.Fatalf("sound monitor produced %d violations", vSound)
		}
		b.ReportMetric(eSound, "sound-energy")
		b.ReportMetric(eUnsound, "unsound-energy")
		b.ReportMetric(float64(vUnsound), "unsound-violations")
	}
}

// BenchmarkDQNMemoryAblation compares perturbation-memory lengths r = 1
// (the paper's default) and r = 4 on the Fig. 4 scenario: reported metrics
// are the evaluated fuel savings of each trained agent.
func BenchmarkDQNMemoryAblation(b *testing.B) {
	m := sharedACCModel(b)
	sc := acc.Fig4Scenario()
	for i := 0; i < b.N; i++ {
		for _, r := range []int{1, 4} {
			agent, _, err := m.TrainDRL(sc.Profile, acc.TrainConfig{
				Episodes: 120, Memory: r, Seed: 1, // 120 episodes: enough for a representative comparison
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			x0s, err := m.SampleInitialStates(10, rng)
			if err != nil {
				b.Fatal(err)
			}
			var fuelRM, fuelDRL float64
			pol := m.DRLPolicy(agent)
			for _, x0 := range x0s {
				vf := sc.Profile.Generate(rng, 100)
				epRM, err := m.RunEpisode(core.AlwaysRun{}, x0, vf, nil)
				if err != nil {
					b.Fatal(err)
				}
				epDR, err := m.RunEpisodeWithMemory(pol, x0, vf, nil, r)
				if err != nil {
					b.Fatal(err)
				}
				fuelRM += epRM.Fuel
				fuelDRL += epDR.Fuel
			}
			saving := 100 * (fuelRM - fuelDRL) / fuelRM
			if r == 1 {
				b.ReportMetric(saving, "r1-saving-%")
			} else {
				b.ReportMetric(saving, "r4-saving-%")
			}
		}
	}
}

// BenchmarkSkipBudgetChain measures the offline construction of the
// multi-step strengthened sets S₁…S₈ (the weakly-hard extension).
func BenchmarkSkipBudgetChain(b *testing.B) {
	m := sharedACCModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reach.ConsecutiveSkipSets(m.Sets.XI, m.Sys, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPSolve measures the simplex kernel on an RMPC-sized program,
// split so the warm-start win is measured directly rather than inferred:
// "cold" forks a fresh workspace per solve (full two-phase simplex over
// the compiled form — the pre-parametric per-step cost), "warm" resolves
// on one workspace from the previous optimal basis (the steady-state
// per-step cost).
func BenchmarkLPSolve(b *testing.B) {
	m := sharedACCModel(b)
	x := mat.Vec{150, 40}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := m.RMPC.ForSession().(*controller.RMPC)
			if _, err := h.ComputeSequence(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		h := m.RMPC.ForSession().(*controller.RMPC)
		if _, err := h.ComputeSequence(x); err != nil {
			b.Fatal(err) // prime the basis
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.ComputeSequence(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStrengthenedSafeSet measures the online-irrelevant but
// design-time-critical X′ construction from a given XI.
func BenchmarkStrengthenedSafeSet(b *testing.B) {
	m := sharedACCModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reach.StrengthenedSafeSet(m.Sets.XI, m.Sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameworkStepSkip measures the full Algorithm 1 step on the
// pure skip path (monitor + policy + zero input + plant update) — the
// runtime the framework adds when no controller runs. Recording is off
// (the embedded-runtime mode) and the disturbance holds the state at the
// X′ setpoint under zero input, so every iteration skips and the step
// must not allocate at all.
func BenchmarkFrameworkStepSkip(b *testing.B) {
	m := sharedACCModel(b)
	fw, err := m.Framework(core.BangBang{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := fw.NewSession(mat.Vec{150, 40})
	if err != nil {
		b.Fatal(err)
	}
	// w = x − A·x − c at x = (150, 40): exactly cancels the drag decay, so
	// the skipped (u = 0) dynamics have a fixed point at the setpoint.
	w := mat.Vec{0, acc.Drag * acc.Delta * 40}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Step(w); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sess.Result.Runs != 0 {
		b.Fatalf("skip bench ran the controller %d times", sess.Result.Runs)
	}
}
