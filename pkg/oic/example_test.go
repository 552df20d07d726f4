package oic_test

import (
	"context"
	"fmt"
	"log"

	"oic/pkg/oic"

	_ "oic/internal/acc" // register the plant served below
)

// An Engine is built once per (plant, scenario, policy) and owns the
// expensive artifacts: safety sets, the compiled parametric LP and the skip
// policy. Sessions are cheap pooled handles, and StepBatch advances a
// fleet of them in parallel, as oicd does over HTTP.
func ExampleEngine_StepBatch() {
	eng, err := oic.NewEngine(oic.Config{Plant: "acc", Policy: oic.PolicyBangBang})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine: plant %q scenario %q policy %q (nx=%d nu=%d)\n",
		eng.PlantName(), eng.ScenarioID(), eng.PolicyName(), eng.NX(), eng.NU())

	// Sixteen sessions, each with its own seeded episode.
	const fleet, steps = 16, 100
	sessions := make([]*oic.Session, fleet)
	dists := make([][][]float64, fleet)
	for i := range sessions {
		x0, w, err := eng.DrawCase(int64(i+1), steps)
		if err != nil {
			log.Fatal(err)
		}
		if sessions[i], err = eng.NewSession(x0); err != nil {
			log.Fatal(err)
		}
		defer sessions[i].Close()
		dists[i] = w
	}

	var skips, runs, forced int
	for t := 0; t < steps; t++ {
		batch := make([]oic.BatchStep, fleet)
		for i := range batch {
			batch[i] = oic.BatchStep{Session: sessions[i], W: dists[i][t]}
		}
		for _, r := range eng.StepBatch(context.Background(), batch, 0) {
			if r.Error != "" {
				log.Fatalf("t=%d: %s", t, r.Error)
			}
			if r.Ran {
				runs++
			} else {
				skips++
			}
			if r.Forced {
				forced++
			}
		}
	}

	var violations int
	var energy float64
	for _, s := range sessions {
		info := s.Info()
		violations += info.Violations
		energy += info.Energy
	}
	fmt.Printf("skipped %d of %d session-steps, ran κ %d (monitor-forced %d)\n",
		skips, fleet*steps, runs, forced)
	fmt.Printf("violations %d (Theorem 1 requires 0), total energy %.1f\n", violations, energy)
	// Output:
	// engine: plant "acc" scenario "Fig.4" policy "bang-bang" (nx=2 nu=1)
	// skipped 1282 of 1600 session-steps, ran κ 318 (monitor-forced 318)
	// violations 0 (Theorem 1 requires 0), total energy 12655.2
}

// Replay is the runtime's audit trail and what-if machine (DESIGN.md §8).
// A recorded episode replays byte-identically, the offline auditor
// re-verifies it and catches a tampered copy, and a replay under another
// policy and a compute budget diffs the accounting.
func ExampleEngine_Replay() {
	eng, err := oic.NewEngine(oic.Config{Plant: "acc", Policy: oic.PolicyAlwaysRun})
	if err != nil {
		log.Fatal(err)
	}

	// Record a seeded episode through a traced session.
	const steps = 50
	x0, w, err := eng.DrawCase(7, steps)
	if err != nil {
		log.Fatal(err)
	}
	s, err := eng.NewSession(x0)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.StartTrace(0); err != nil {
		log.Fatal(err)
	}
	if _, err := s.StepMany(context.Background(), w); err != nil {
		log.Fatal(err)
	}
	tr, err := s.Trace()
	if err != nil {
		log.Fatal(err)
	}
	s.Close()
	b, err := oic.EncodeTrace(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %s/%s under %s: %d steps, %d bytes\n",
		tr.Meta.Plant, tr.Meta.Scenario, tr.Meta.Policy, tr.Len(), len(b))

	// Conformance replay: byte-identical or the runtime drifted.
	rep, err := eng.Replay(tr, oic.ReplayOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conformance replay: identical=%v (flips %d, max state divergence %g)\n",
		rep.Diff.Identical, rep.Diff.DecisionFlips, rep.Diff.MaxStateDivergence)

	// Audit: the log re-verified against the declared model and safety
	// sets, and an out-of-model disturbance planted in a copy.
	au, err := eng.AuditTrace(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit of the recorded log: clean=%v over %d steps\n", au.Clean, au.Steps)
	tampered := tr.Clone()
	tampered.Steps[10].W[0] += 50
	au2, err := eng.AuditTrace(tampered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit of a tampered log: clean=%v", au2.Clean)
	for _, f := range au2.Findings {
		fmt.Printf(" [step %d %s]", f.Step, f.Kind)
	}
	fmt.Println()

	// What-if: the same episode under bang-bang with 8 κ computes in all.
	what, err := eng.Replay(tr, oic.ReplayOptions{Policy: oic.PolicyBangBang, ComputeBudget: 8})
	if err != nil {
		log.Fatal(err)
	}
	d := what.Diff
	fmt.Printf("what-if (bang-bang, budget 8): computes %d→%d, energy %.4g→%.4g, shed %d\n",
		d.ComputesA, d.ComputesB, d.EnergyA, d.EnergyB, what.Shed)
	fmt.Printf("XI margin %.4g→%.4g, violations %d\n",
		what.SafetyMarginRecorded, what.SafetyMarginReplayed, what.Violations)
	// Output:
	// recorded acc/Fig.4 under always-run: 50 steps, 2134 bytes
	// conformance replay: identical=true (flips 0, max state divergence 0)
	// audit of the recorded log: clean=true over 50 steps
	// audit of a tampered log: clean=false [step 10 out-of-model-disturbance] [step 10 dynamics-mismatch]
	// what-if (bang-bang, budget 8): computes 50→2, energy 471.5→80, shed 0
	// XI margin 2.608→0.01084, violations 0
}
