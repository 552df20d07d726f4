package core_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"oic/internal/controller"
	"oic/internal/core"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/poly"
	"oic/internal/reach"
)

// doubleIntegrator builds the examples' plant: a position/velocity double
// integrator with safe set X, input set U and a disturbance box of half
// width wmax; its safe controller κ, an LQR state feedback; and the
// safety sets, XI the maximal robust invariant set of the closed loop
// (restricted to states where κ's output is admissible) and
// X′ = B(XI, 0) ∩ XI.
func doubleIntegrator(wmax float64) (*lti.System, *controller.AffineFeedback, core.SafetySets) {
	a := mat.FromRows([][]float64{{1, 0.1}, {0, 1}})
	b := mat.FromRows([][]float64{{0}, {0.1}})
	sys := lti.NewSystem(a, b).WithConstraints(
		poly.Box([]float64{-5, -3}, []float64{5, 3}),             // safe set X
		poly.Box([]float64{-4}, []float64{4}),                    // input set U
		poly.Box([]float64{-wmax, -wmax}, []float64{wmax, wmax}), // disturbance W
	)
	k, err := controller.LQR(sys.A, sys.B, mat.Identity(2), mat.Identity(1), 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	acl, ccl := sys.ClosedLoop(k, mat.Vec{0, 0}, mat.Vec{0})
	admissible := poly.New(sys.U.A.Mul(k), sys.U.B.Clone())
	xi, err := reach.MaximalInvariantSet(
		poly.Intersect(sys.X, admissible).ReduceRedundancy(), acl, ccl, sys.W)
	if err != nil {
		log.Fatal(err)
	}
	sets, err := core.ComputeSafetySets(sys, xi)
	if err != nil {
		log.Fatal(err)
	}
	return sys, controller.NewAffineFeedback(k, nil, nil), sets
}

// Wrap an existing safe controller with the opportunistic intermittent
// control framework and skip by the bang-bang rule of Eq. 7: skip whenever
// the monitor proves it safe (x ∈ X′). The always-run baseline sees the
// same random extreme disturbances.
func ExampleFramework_Run() {
	sys, kappa, sets := doubleIntegrator(0.03)
	fmt.Printf("safety sets: X %d rows, XI %d rows, X' %d rows\n",
		sets.X.NumRows(), sets.XI.NumRows(), sets.XPrime.NumRows())

	rng := rand.New(rand.NewSource(1))
	sign := func() float64 {
		if rng.Float64() < 0.5 {
			return -1
		}
		return 1
	}
	wSeq := make([]mat.Vec, 200)
	for t := range wSeq {
		wSeq[t] = mat.Vec{0.03 * sign(), 0.03 * sign()}
	}
	run := func(p core.SkipPolicy) *core.Result {
		fw, err := core.NewFramework(sys, kappa, sets, p, 1)
		if err != nil {
			log.Fatal(err)
		}
		res, err := fw.Run(mat.Vec{1.5, 0.5}, 200, func(t int) mat.Vec { return wSeq[t] })
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	res, base := run(core.BangBang{}), run(core.AlwaysRun{})

	fmt.Printf("bang-bang:  energy %7.2f, skipped %3d/200, monitor-forced %d, violations %d\n",
		res.Energy, res.Skips, res.Forced, res.ViolationsX)
	fmt.Printf("always-run: energy %7.2f, skipped %3d/200\n", base.Energy, base.Skips)
	fmt.Printf("energy saving: %.1f%%, with safety guaranteed by Theorem 1\n",
		100*(base.Energy-res.Energy)/base.Energy)
	// Output:
	// safety sets: X 4 rows, XI 12 rows, X' 10 rows
	// bang-bang:  energy    7.86, skipped 198/200, monitor-forced 2, violations 0
	// always-run: energy   33.12, skipped   0/200
	// energy saving: 76.3%, with safety guaranteed by Theorem 1
}

// Model-based skipping (Eq. 6): when κ is affine and the disturbance is
// known ahead of time, a mixed-integer program plans over a receding
// horizon which steps to skip, minimizing Σ‖u‖₁ while keeping every
// predicted state inside X′.
func ExampleModelBasedPolicy() {
	sys, kappa, sets := doubleIntegrator(0.04)
	known := func(t int) mat.Vec { return mat.Vec{0.04 * math.Sin(float64(t)*0.25), 0} }
	mip := &core.ModelBasedPolicy{
		Sys:     core.SysModel{A: sys.A, B: sys.B, C: sys.C},
		Kappa:   kappa,
		XPrime:  sets.XPrime,
		U:       sys.U,
		Horizon: 6,
		KnownW:  known,
	}

	const steps = 80
	run := func(p core.SkipPolicy) *core.Result {
		fw, err := core.NewFramework(sys, kappa, sets, p, 1)
		if err != nil {
			log.Fatal(err)
		}
		res, err := fw.Run(mat.Vec{1.0, 0.4}, steps, known)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	rows := []struct {
		name string
		r    *core.Result
	}{
		{"always-run", run(core.AlwaysRun{})},
		{"bang-bang (Eq. 7)", run(core.BangBang{})},
		{"model-based MIP (Eq. 6)", run(mip)},
	}
	always := rows[0].r
	fmt.Printf("%-23s %7s %6s %6s %4s %6s\n", "policy", "energy", "skips", "forced", "viol", "saving")
	for _, row := range rows {
		r := row.r
		fmt.Printf("%-23s %7.3f %3d/%d %6d %4d %5.1f%%\n", row.name, r.Energy, r.Skips, steps,
			r.Forced, r.ViolationsX, 100*(always.Energy-r.Energy)/always.Energy)
	}
	st := mip.Stats()
	fmt.Printf("MIP solver: %d optimal decisions, %d fallbacks, %d B&B nodes\n",
		st.Solved, st.Fallbacks, st.TotalNodes)
	// Output:
	// policy                   energy  skips forced viol saving
	// always-run               17.732   0/80      0    0   0.0%
	// bang-bang (Eq. 7)         3.898  79/80      1    0  78.0%
	// model-based MIP (Eq. 6)   3.503  79/80      0    0  80.2%
	// MIP solver: 80 optimal decisions, 0 fallbacks, 91 B&B nodes
}
