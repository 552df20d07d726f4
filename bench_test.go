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
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"oic/internal/acc"
	"oic/internal/controller"
	"oic/internal/core"
	"oic/internal/exp"
	"oic/internal/mat"
	"oic/internal/nn"
	"oic/internal/plant"
	"oic/internal/reach"
	"oic/pkg/oic"

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
				if _, err := p.Instantiate(p.Headline(), nil); err != nil {
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
			inst, err := p.Instantiate(p.Headline(), nil)
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

// trainACCPolicy trains the Fig. 4 DRL skipping policy through the
// generic trainer.
func trainACCPolicy(b *testing.B, cfg plant.TrainConfig) core.SkipPolicy {
	b.Helper()
	inst, err := acc.Plant{}.Instantiate(acc.Fig4Scenario().Generic(), nil)
	if err != nil {
		b.Fatal(err)
	}
	pol, _, err := plant.TrainDRL(inst, cfg, acc.EpisodeSteps)
	if err != nil {
		b.Fatal(err)
	}
	return pol
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
	policy := trainACCPolicy(b, plant.TrainConfig{Episodes: 2, Steps: 20})
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

// BenchmarkDQNInference isolates the served DQN forward pass: the golden
// thermo-drl policy's frozen net, as oicd restores it, over the encoded
// states its fleet members were consulted on (dqnFleetStates), in one
// reused scratch, so allocs/op reads 0. The frozen pass skips the zeros
// its ReLUs leave, so its speed depends on how many there are: each
// sub-benchmark reports every hidden layer's share of exactly-zero
// outputs (h1-zero-share, h2-zero-share). "no-zeros" runs the same net
// with its hidden biases raised until no activation over these states is
// zero: the pass's worst case.
func BenchmarkDQNInference(b *testing.B) {
	a := goldenArtifact(b, "thermo-drl")
	p := a.Policy
	states := dqnFleetStates(b, a)
	served, err := nn.FromSnapshot(&nn.Snapshot{Sizes: p.Sizes, Weights: p.Weights, Biases: p.Biases})
	if err != nil {
		b.Fatal(err)
	}
	positive := served.Clone()
	// Layer by layer, lift each unit's bias 1 above its lowest
	// pre-activation over the states, on the lifted layers before it.
	hs := states
	for l := 0; l < positive.NumLayers()-1; l++ {
		pre := make([]mat.Vec, len(hs))
		for k, h := range hs {
			pre[k] = positive.Weights[l].MulVec(h).Add(positive.Biases[l])
		}
		for i := range positive.Biases[l] {
			low := math.Inf(1)
			for _, v := range pre {
				low = min(low, v[i])
			}
			if low <= 0 {
				positive.Biases[l][i] += 1 - low
				for _, v := range pre {
					v[i] += 1 - low
				}
			}
		}
		hs = pre
	}
	for _, bc := range []struct {
		name string
		net  *nn.MLP
	}{{"served", served}, {"no-zeros", positive}} {
		b.Run(bc.name, func(b *testing.B) {
			f := bc.net.Freeze()
			floats, inputs := f.ScratchLen()
			scratch, keep := make(mat.Vec, floats), make([]int32, inputs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.ForwardInto(states[i%len(states)], scratch, keep)
			}
			b.StopTimer()
			for l, share := range hiddenZeroShares(bc.net, states) {
				b.ReportMetric(share, fmt.Sprintf("h%d-zero-share", l+1))
			}
		})
	}
}

// goldenArtifact decodes the committed golden artifact of a golden case.
func goldenArtifact(b *testing.B, name string) *oic.Artifact {
	b.Helper()
	raw, err := os.ReadFile(filepath.Join("internal", "artifact", "testdata", "golden", name+".oica"))
	if err != nil {
		b.Fatal(err)
	}
	a, err := oic.DecodeArtifact(raw)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// dqnFleetStates runs a fleet-decide-shaped fleet on a's engine (2000
// members, budget 96, disturbances from DrawCase) for 60 ticks and
// returns the encoded agent state of every member at every tick where
// the policy is consulted: the member's state inside X′, with the
// disturbances that state's decide reads.
func dqnFleetStates(b *testing.B, a *oic.Artifact) []mat.Vec {
	b.Helper()
	const sessions, budget, ticks = 2000, 96, 60
	e, err := oic.LoadEngine(a)
	if err != nil {
		b.Fatal(err)
	}
	f, err := e.NewFleet(oic.FleetConfig{ComputeBudget: budget, MaxSessions: sessions})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	p := a.Policy
	enc := plant.FixedEncoder(p.XCenter, p.XScale, p.WScale)
	ids := make([]int, sessions)
	cases := make([][][]float64, sessions)
	for i := range ids {
		x0, w, err := e.DrawCase(int64(i+1), ticks)
		if err != nil {
			b.Fatal(err)
		}
		if ids[i], err = f.Admit(x0); err != nil {
			b.Fatal(err)
		}
		cases[i] = w
	}
	var states []mat.Vec
	for t := 0; t < ticks; t++ {
		ws := make(map[int][]float64, sessions)
		for i, id := range ids {
			ws[id] = cases[i][t]
		}
		if _, err := f.Tick(context.Background(), ws); err != nil {
			b.Fatal(err)
		}
		if t+1 < p.Memory {
			continue
		}
		for i, id := range ids {
			info, err := f.Member(id)
			if err != nil {
				b.Fatal(err)
			}
			if info.Level != core.InXPrime.String() {
				continue
			}
			recent := make([]mat.Vec, p.Memory)
			for k := range recent {
				recent[k] = cases[i][t+1-p.Memory+k]
			}
			states = append(states, enc.Encode(info.X, recent))
		}
	}
	if len(states) == 0 {
		b.Fatal("no member state inside X'")
	}
	return states
}

// hiddenZeroShares returns, per hidden layer, the share of its ReLU
// outputs over states that are exactly zero, from the dense pass.
func hiddenZeroShares(net *nn.MLP, states []mat.Vec) []float64 {
	hidden := net.NumLayers() - 1
	shares := make([]float64, hidden)
	for _, s := range states {
		h := s
		for l := 0; l < hidden; l++ {
			h = net.Weights[l].MulVec(h).Add(net.Biases[l])
			for i, v := range h {
				if v <= 0 {
					h[i] = 0
					shares[l]++
				}
			}
		}
	}
	for l := range shares {
		shares[l] /= float64(len(states) * net.Sizes[l+1])
	}
	return shares
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
			if _, err := reach.MaximalRCI(m.Sys); err != nil {
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
	x0s, err := m.Sets.XPrime.Sample(8, rng.Float64)
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
	inst, err := acc.Plant{}.Instantiate(acc.Fig4Scenario().Generic(), nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, r := range []int{1, 4} {
			pol := trainACCPolicy(b, plant.TrainConfig{
				Episodes: 120, Memory: r, Seed: 1, // 120 episodes: enough for a representative comparison
			})
			rng := rand.New(rand.NewSource(5))
			x0s, err := inst.SampleInitialStates(10, rng)
			if err != nil {
				b.Fatal(err)
			}
			var fuelRM, fuelDRL float64
			for _, x0 := range x0s {
				w := inst.Disturbances(rng, 100)
				epRM, err := inst.RunEpisode(core.AlwaysRun{}, x0, w)
				if err != nil {
					b.Fatal(err)
				}
				// The trained policy declares its window r (PolicyMemory),
				// so RunEpisode sizes the session for it.
				epDR, err := inst.RunEpisode(pol, x0, w)
				if err != nil {
					b.Fatal(err)
				}
				fuelRM += epRM.Cost
				fuelDRL += epDR.Cost
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
// multi-step strengthened sets S₁…S₈ behind the fleet's skip-budget oracle.
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
// on one workspace from the previous optimal basis at the same state (the
// zero-pivot floor), and "repair" resolves on one workspace along a fixed
// seeded walk through X′ — the path most fleet computes pay, since a
// member's basis goes stale over the ticks it skips. The walk's steps are
// large enough that about two resolves in three need dual-simplex repair,
// at about five pivots each, and about one in 300 is a drift-guard cold
// refactorization. It runs forward and back over its 256 states, so
// consecutive states are always neighbours. "repair" keeps one workspace
// in cache; "fleet" resolves 1000 handles round-robin, each on its own
// seeded walk of the same shape, so each solve finds its workspace out of
// cache as a fleet member does, and reports the live heap each primed
// handle holds (B/handle).
func BenchmarkLPSolve(b *testing.B) {
	m := sharedACCModel(b)
	x := mat.Vec{150, 40}
	walk := func(seed int64, n int) []mat.Vec {
		rng := rand.New(rand.NewSource(seed))
		w := []mat.Vec{x}
		for len(w) < n {
			last := w[len(w)-1]
			y := mat.Vec{last[0] + 3.6*rng.NormFloat64(), last[1] + 1.8*rng.NormFloat64()}
			if m.Sets.XPrime.Contains(y, 0) {
				w = append(w, y)
			}
		}
		return w
	}
	// at returns the k-th state of a walk run forward and back.
	at := func(w []mat.Vec, k int) mat.Vec {
		k %= 2 * len(w)
		if k >= len(w) {
			k = 2*len(w) - 1 - k
		}
		return w[k]
	}
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
	b.Run("repair", func(b *testing.B) {
		w := walk(6, 256)
		h := m.RMPC.ForSession().(*controller.RMPC)
		if _, err := h.ComputeSequence(w[0]); err != nil {
			b.Fatal(err) // prime the basis
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.ComputeSequence(at(w, i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fleet", func(b *testing.B) {
		const handles = 1000
		walks := make([][]mat.Vec, handles)
		for k := range walks {
			walks[k] = walk(int64(k)+7, 32)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		hs := make([]*controller.RMPC, handles)
		for k := range hs {
			hs[k] = m.RMPC.ForSession().(*controller.RMPC)
			if _, err := hs[k].ComputeSequence(walks[k][0]); err != nil {
				b.Fatal(err) // prime the basis
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perHandle := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / handles
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % handles
			if _, err := hs[k].ComputeSequence(at(walks[k], i/handles+1)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(perHandle, "B/handle") // after the loop: ResetTimer drops reported metrics
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
	fw, err := core.NewFramework(m.Sys, m.RMPC, m.Sets, core.BangBang{}, 1)
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
