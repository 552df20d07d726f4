package lp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// randomProblem builds a random bounded-feasible LP: a box around the
// origin, extra random halfspaces feasible at the origin, a random
// objective, and a mix of bound classes.
func randomProblem(rng *rand.Rand) (*Problem, []float64) {
	n := 2 + rng.Intn(4)
	p := NewProblem(n)
	c := make([]float64, n)
	for j := range c {
		c[j] = rng.NormFloat64()
	}
	p.SetObjective(c)
	for j := 0; j < n; j++ {
		switch rng.Intn(4) {
		case 0: // free
		case 1:
			p.SetBounds(j, -1-rng.Float64()*4, math.Inf(1))
		case 2:
			p.SetBounds(j, math.Inf(-1), 1+rng.Float64()*4)
		default:
			lo := -1 - rng.Float64()*4
			p.SetBounds(j, lo, lo+1+rng.Float64()*6)
		}
	}
	// Box rows keep the problem bounded regardless of variable bounds.
	B := 2.0 + rng.Float64()*6
	var rhs []float64
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		p.AddConstraint(e, LE, B)
		rhs = append(rhs, B)
		e2 := make([]float64, n)
		e2[j] = -1
		p.AddConstraint(e2, LE, B)
		rhs = append(rhs, B)
	}
	extra := 1 + rng.Intn(5)
	for i := 0; i < extra; i++ {
		a := make([]float64, n)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		b := 0.2 + rng.Float64()*3
		sense := LE
		if rng.Intn(3) == 0 {
			sense = GE
			b = -b
		}
		p.AddConstraint(a, sense, b)
		rhs = append(rhs, b)
	}
	return p, rhs
}

// checkAgainstColdSolve compares a Solver solution against a from-scratch
// Problem.Solve of an equivalent problem: status must match, objectives
// agree within 1e-7, and the reported X must be feasible.
func checkAgainstColdSolve(t *testing.T, trial, step int, q *Problem, got *Solution) {
	t.Helper()
	want := q.Solve()
	if got.Status != want.Status {
		t.Fatalf("trial %d step %d: status %v, cold solve says %v", trial, step, got.Status, want.Status)
	}
	if got.Status != Optimal {
		return
	}
	if d := math.Abs(got.Objective - want.Objective); d > 1e-7*(1+math.Abs(want.Objective)) {
		t.Fatalf("trial %d step %d: objective %v vs cold %v (Δ=%g)", trial, step, got.Objective, want.Objective, d)
	}
	for i := 0; i < q.NumRows(); i++ {
		r := q.rows[i]
		s := 0.0
		for j, a := range r.coeffs {
			s += a * got.X[j]
		}
		switch r.sense {
		case LE:
			if s > r.rhs+1e-6 {
				t.Fatalf("trial %d step %d: row %d violated: %v > %v", trial, step, i, s, r.rhs)
			}
		case GE:
			if s < r.rhs-1e-6 {
				t.Fatalf("trial %d step %d: row %d violated: %v < %v", trial, step, i, s, r.rhs)
			}
		case EQ:
			if math.Abs(s-r.rhs) > 1e-6 {
				t.Fatalf("trial %d step %d: row %d violated: %v != %v", trial, step, i, s, r.rhs)
			}
		}
	}
	for j := 0; j < q.NumVars(); j++ {
		lo, hi := q.Bounds(j)
		if got.X[j] < lo-1e-6 || got.X[j] > hi+1e-6 {
			t.Fatalf("trial %d step %d: x[%d]=%v outside [%v,%v]", trial, step, j, got.X[j], lo, hi)
		}
	}
}

// TestSolverWarmEquivalence drives one compiled Solver through sequences
// of randomized right-hand-side changes — the RMPC resolve pattern — and
// checks every warm resolve against an independent from-scratch solve.
func TestSolverWarmEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		p, rhs0 := randomProblem(rng)
		s := NewSolver(p)
		rhs := append([]float64(nil), rhs0...)
		for step := 0; step < 8; step++ {
			// Perturb the right-hand sides; occasionally push a row hard
			// negative so infeasible instances are exercised too.
			for i := range rhs {
				rhs[i] = rhs0[i] + rng.NormFloat64()*0.5
				if rng.Intn(40) == 0 {
					rhs[i] -= 20
				}
			}
			got := s.SolveRHS(rhs)

			q := p.Clone()
			for i, b := range rhs {
				q.rows[i].rhs = b
			}
			checkAgainstColdSolve(t, trial, step, q, got)
		}
	}
}

// TestSolverParamBoundsEquivalence exercises the branch-and-bound reuse
// pattern: one compiled Solver resolved under tightened variable bounds,
// compared against a fresh problem with the same bounds.
func TestSolverParamBoundsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		p, _ := randomProblem(rng)
		n := p.NumVars()
		s := NewSolver(p)
		lo := make([]float64, n)
		hi := make([]float64, n)
		for step := 0; step < 6; step++ {
			for j := 0; j < n; j++ {
				lo[j], hi[j] = p.Bounds(j)
				// Tighten within the same boundedness class.
				if !math.IsInf(lo[j], -1) {
					lo[j] += rng.Float64()
				}
				if !math.IsInf(hi[j], 1) {
					hi[j] -= rng.Float64()
				}
				if lo[j] > hi[j] {
					lo[j], hi[j] = hi[j], lo[j]
				}
			}
			got, ok := s.SolveParams(nil, lo, hi)
			if !ok {
				t.Fatalf("trial %d step %d: bounds class unexpectedly changed", trial, step)
			}

			q := p.Clone()
			for j := 0; j < n; j++ {
				q.SetBounds(j, lo[j], hi[j])
			}
			checkAgainstColdSolve(t, trial, step, q, got)
		}
		// A class change must be refused, not mis-solved.
		for j := 0; j < n; j++ {
			l, h := p.Bounds(j)
			if math.IsInf(l, -1) {
				lo2 := make([]float64, n)
				hi2 := make([]float64, n)
				for k := 0; k < n; k++ {
					lo2[k], hi2[k] = p.Bounds(k)
				}
				lo2[j] = 0
				if _, ok := s.SolveParams(nil, lo2, hi2); ok {
					t.Fatalf("trial %d: class change (var %d lower %v→0, hi %v) accepted", trial, j, l, h)
				}
				break
			}
		}
	}
}

// TestSolverMatchesProblemSolve pins the thin-wrapper contract: a one-shot
// Solver solve and Problem.Solve agree exactly on fresh problems.
func TestSolverMatchesProblemSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		p, _ := randomProblem(rng)
		a := p.Solve()
		b := NewSolver(p).Solve()
		if a.Status != b.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, a.Status, b.Status)
		}
		if a.Status == Optimal && a.Objective != b.Objective {
			t.Fatalf("trial %d: objective %v vs %v (must be identical arithmetic)", trial, a.Objective, b.Objective)
		}
	}
}

// TestSolverEqualityRowsFallBackCold verifies that programs with equality
// rows (no warm path) still resolve correctly through the solver.
func TestSolverEqualityRowsFallBackCold(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.SetBounds(0, 0, math.Inf(1))
	p.SetBounds(1, 0, math.Inf(1))
	p.AddConstraint([]float64{1, 2}, EQ, 3)
	s := NewSolver(p)
	for step := 0; step < 4; step++ {
		b := 3.0 + float64(step)
		sol := s.SolveRHS([]float64{b})
		if sol.Status != Optimal {
			t.Fatalf("step %d: status %v", step, sol.Status)
		}
		if want := b / 2; math.Abs(sol.Objective-want) > 1e-9 {
			t.Fatalf("step %d: objective %v, want %v", step, sol.Objective, want)
		}
	}
}

// TestSolverReusedXBuffer documents the Solution ownership contract: the X
// slice is reused across solves on the same Solver.
func TestSolverReusedXBuffer(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]float64{1}, GE, 1)
	s := NewSolver(p)
	first := s.SolveRHS([]float64{1})
	x1 := first.X[0]
	second := s.SolveRHS([]float64{5})
	if &first.X[0] != &second.X[0] {
		t.Fatal("expected the Solver to reuse its X buffer")
	}
	if x1 != 1 || second.X[0] != 5 {
		t.Fatalf("solutions wrong: %v then %v", x1, second.X[0])
	}
	// Problem.Solve, by contrast, returns an owned copy.
	a := p.Solve()
	b := p.Solve()
	if &a.X[0] == &b.X[0] {
		t.Fatal("Problem.Solve must return an owned X")
	}
}

// accFixture is the ACC case study's RMPC horizon LP exactly as
// controller.NewRMPC compiles it for acc.NewModel(acc.Config{}): 38
// nonnegative variables (u⁺, u⁻ and the state-deviation epigraph terms of a
// horizon of 10), 155 LE rows, the affine rhs map rhs(x) = RHSConst +
// RHSGrad·x, and the H-representation of the model's X′. It is frozen in
// testdata on purpose: the warm-chain digest below pins this package's
// arithmetic, not the offline set pipeline that produced the program.
type accFixture struct {
	C        []float64   `json:"c"`
	Rows     [][]float64 `json:"rows"`
	RHSConst []float64   `json:"rhs_const"`
	RHSGrad  [][]float64 `json:"rhs_grad"`
	XPrimeA  [][]float64 `json:"xprime_a"`
	XPrimeB  []float64   `json:"xprime_b"`
}

func loadACCFixture(t testing.TB) *accFixture {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "acc_rmpc.json"))
	if err != nil {
		t.Fatal(err)
	}
	f := new(accFixture)
	if err := json.Unmarshal(raw, f); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *accFixture) problem() *Problem {
	p := NewProblem(len(f.C))
	p.SetObjective(f.C)
	for j := range f.C {
		p.SetBounds(j, 0, math.Inf(1))
	}
	for i, r := range f.Rows {
		p.AddConstraint(r, LE, f.RHSConst[i])
	}
	return p
}

// rhsAt fills dst with rhs(x), accumulating in the controller's order.
func (f *accFixture) rhsAt(dst []float64, x [2]float64) {
	for i := range dst {
		acc := f.RHSConst[i]
		for j, g := range f.RHSGrad[i] {
			acc += g * x[j]
		}
		dst[i] = acc
	}
}

func (f *accFixture) inXPrime(x [2]float64) bool {
	for i, a := range f.XPrimeA {
		if a[0]*x[0]+a[1]*x[1] > f.XPrimeB[i] {
			return false
		}
	}
	return true
}

// accChainDigest pins the warm chain below: the SHA-256 of every status,
// Objective and Solution.X bit and the SolveStats after each call, taken
// with the dense full-width tableau and the scalar rhs transform. Any
// change to the solver's storage or kernels must keep it.
const accChainDigest = "a9b0fb398de052fbe5b041c188b5e5bb12a77ebd396c5993ca334ef2728557d2"

// runACCChain drives one Solver through 5000 seeded SolveRHS calls on the
// ACC program: a random walk through X′ (small steps, rejected proposals
// resolve the same state), jumps to a uniform point of X′ at least 20 m
// away in s, some of which invalidate more than a third of the rows and so
// force the cold fallback, and a ResetWarm halfway. before, when non-nil,
// runs ahead of every call with the chain's solver.
func runACCChain(t testing.TB, f *accFixture, before func(*Solver)) (string, SolveStats) {
	t.Helper()
	const calls = 5000
	s := NewSolver(f.problem())
	rng := rand.New(rand.NewSource(22))
	rhs := make([]float64, s.NumRows())
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	x := [2]float64{150, 40}
	for call := 0; call < calls; call++ {
		if call == calls/2 {
			s.ResetWarm()
		}
		if rng.Intn(60) == 0 {
			for {
				y := [2]float64{120 + 60*rng.Float64(), 25 + 30*rng.Float64()}
				if f.inXPrime(y) && math.Abs(y[0]-x[0]) > 20 {
					x = y
					break
				}
			}
		} else if y := [2]float64{x[0] + 0.6*rng.NormFloat64(), x[1] + 0.3*rng.NormFloat64()}; f.inXPrime(y) {
			x = y
		}
		f.rhsAt(rhs, x)
		if before != nil {
			before(s)
		}
		sol := s.SolveRHS(rhs)
		put(uint64(sol.Status))
		if sol.Status == Optimal {
			put(math.Float64bits(sol.Objective))
			for _, v := range sol.X {
				put(math.Float64bits(v))
			}
		}
		st := s.Stats()
		put(uint64(st.Cold))
		put(uint64(st.Warm))
		put(uint64(st.ColdPivots))
		put(uint64(st.WarmPivots))
	}
	return hex.EncodeToString(h.Sum(nil)), s.Stats()
}

// TestSolverACCWarmChainDigest runs the ACC warm chain and requires its
// pinned digest, so every output of the chain is bit-identical to the
// reference arithmetic. It also checks the chain reaches every path.
func TestSolverACCWarmChainDigest(t *testing.T) {
	f := loadACCFixture(t)
	got, st := runACCChain(t, f, nil)
	// One cold solve opens each half; the rest are fallbacks from jumps
	// and refactorizations.
	if st.Cold <= 2 || st.WarmPivots == 0 {
		t.Fatalf("chain did not exercise the fallback and repair paths: %+v", st)
	}
	if got != accChainDigest {
		t.Fatalf("warm chain digest %s, want %s", got, accChainDigest)
	}
}

// TestSolverPoisonedScratchSameChain reruns the ACC chain with every pooled
// cold scratch, and the live tableau of a solver about to solve cold,
// poisoned before each call: NaN interleaved with finite junk (NaN alone
// hides a stale read from pricing, since no comparison with NaN holds),
// and the integer scan buffers filled with out-of-range indices. The cold
// path must rewrite every cell it reads, so the digest must not move.
func TestSolverPoisonedScratchSameChain(t *testing.T) {
	f := loadACCFixture(t)
	prog := NewSolver(f.problem()).p
	poison := []float64{math.NaN(), -7.5, math.Inf(-1), 1e300}
	fill := func(buf []float64) {
		for i := range buf {
			buf[i] = poison[i%len(poison)]
		}
	}
	junk := func(buf []int) {
		for i := range buf {
			buf[i] = 1<<20 + i
		}
	}
	poisoned := 0
	got, _ := runACCChain(t, f, func(s *Solver) {
		sc := getColdScratch(prog)
		fill(sc.t)
		fill(sc.z)
		junk(sc.colRow)
		junk(sc.colOnes)
		junk(sc.basisOf)
		coldPool.Put(sc)
		if !s.warm && s.t != nil {
			fill(s.t)
			fill(s.z)
			junk(s.basis)
			poisoned++
		}
	})
	if poisoned == 0 {
		t.Fatal("no cold solve ran on a poisoned live tableau")
	}
	if got != accChainDigest {
		t.Fatalf("poisoned chain digest %s, want %s", got, accChainDigest)
	}
}

// TestSolverWarmSolveRHSZeroAllocs pins the warm resolve of the ACC
// program at zero allocations: after the first cold solve it reuses every
// buffer and never touches the cold scratch pool.
func TestSolverWarmSolveRHSZeroAllocs(t *testing.T) {
	f := loadACCFixture(t)
	s := NewSolver(f.problem())
	rhs := make([]float64, s.NumRows())
	f.rhsAt(rhs, [2]float64{150, 40})
	if sol := s.SolveRHS(rhs); sol.Status != Optimal {
		t.Fatalf("cold solve: %v", sol.Status)
	}
	// Few enough runs that the drift guard (refactorEvery pivots) does not
	// trigger a refactorization inside the measurement.
	states := [][2]float64{{151, 40.2}, {149.5, 39.8}, {150.4, 40.5}, {150, 40}}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		f.rhsAt(rhs, states[i%len(states)])
		i++
		s.SolveRHS(rhs)
	})
	if allocs != 0 {
		t.Fatalf("warm SolveRHS allocates %v times per call", allocs)
	}
	if st := s.Stats(); st.Cold != 1 || st.Warm != i || st.WarmPivots == 0 {
		t.Fatalf("stats %+v after %d resolves: want every resolve warm, some with dual repair", st, i)
	}
}

// slackTransformScalar is the warm rhs transform as one scalar loop per
// row through the slackCol/slackSgn maps: the oracle slackTransform must
// match bit for bit.
func slackTransformScalar(dst, t []float64, stride int, slackCol []int, slackSgn, b []float64) {
	m := len(dst)
	for i := 0; i < m; i++ {
		acc := 0.0
		ti := t[i*stride:]
		for k := 0; k < m; k++ {
			if bk := b[k]; bk != 0 {
				acc += ti[slackCol[k]] * slackSgn[k] * bk
			}
		}
		dst[i] = acc
	}
}

// TestSlackTransformBitIdentical checks the four-row rhs transform against
// the scalar oracle on random tableaux whose entries and rhs values mix
// zeros of both signs, subnormals, extreme magnitudes, infinities and NaN,
// with LE and GE slack signs and m covering every residue mod 4.
func TestSlackTransformBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.5e-310, -1e-308, 1e300, -1e300, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	zero := func() float64 { return special[rng.Intn(2)] }
	for trial := 0; trial < 400; trial++ {
		m := rng.Intn(24)
		off := rng.Intn(6)
		stride := off + m + 1 + rng.Intn(3)
		tab := make([]float64, m*stride+1)
		// Some trials zero the whole tableau or the whole rhs (with both
		// signs), so the sign of an empty or all-zero sum shows.
		mode := rng.Intn(8)
		for i := range tab {
			if mode == 0 {
				tab[i] = zero()
			} else {
				tab[i] = draw()
			}
		}
		slackCol := make([]int, m)
		sgn := make([]float64, m)
		b := make([]float64, m)
		for k := range b {
			slackCol[k] = off + k
			sgn[k] = 1
			if rng.Intn(2) == 0 {
				sgn[k] = -1
			}
			if mode == 1 {
				b[k] = zero()
			} else {
				b[k] = draw()
			}
		}
		got := make([]float64, m)
		want := make([]float64, m)
		slackTransform(got, tab, stride, off, sgn, b)
		slackTransformScalar(want, tab, stride, slackCol, sgn, b)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (m=%d): row %d = %v (%#x), scalar %v (%#x)",
					trial, m, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// shiftedChainDigest pins the SolveParams chain below the same way
// accChainDigest pins the ACC chain, recorded before prepare walked
// compiled coefficient lists.
const shiftedChainDigest = "38e8a313eaa510ae852afeb3b666ad92bd814794ef132072b8f1921438d573f7"

// shiftedProblem is a small program over every variable kind the
// standard-form conversion knows: lower-bounded at nonzero and at zero
// bounds, upper-only, doubly bounded and free. Rows mix LE and GE with
// negative coefficients, and three rows have a −0 right-hand side: one on
// the free variable alone (no shift reaches it) and two on the free and the
// zero-bounded variable, so one keeps the −0 and the other turns it into
// +0. Every row holds at x* = (0, 0, 0.5, 0, 3, 1, 2).
func shiftedProblem() (*Problem, []float64) {
	inf := math.Inf(1)
	p := NewProblem(7)
	p.SetObjective([]float64{0.7, -1.1, 0.4, -0.3, 0.9, -0.6, 0.25})
	bounds := [7][2]float64{{-2.5, inf}, {-inf, 3.25}, {-1.5, 4}, {-inf, inf}, {1.75, inf}, {0, inf}, {0.5, 6}}
	for j, b := range bounds {
		p.SetBounds(j, b[0], b[1])
	}
	negZero := math.Copysign(0, -1)
	rows := []struct {
		a     []float64
		sense Sense
		rhs   float64
	}{
		{[]float64{0, 0, 0, 1, 0, 0, 0}, LE, 5},
		{[]float64{0, 0, 0, -1, 0, 0, 0}, LE, 5},
		{[]float64{1, 0, 0, 0, 0, 0, 0}, LE, 6},
		{[]float64{0, -1, 0, 0, 0, 0, 0}, LE, 4},
		{[]float64{0, 0, 0, 0, 1, 0, 0}, LE, 8},
		{[]float64{0, 0, 0, 0, 0, 1, 0}, LE, 7},
		{[]float64{0, 0, 0, 1, 0, 0, 0}, LE, negZero},
		{[]float64{0, 0, 0, 1, 0, -2, 0}, LE, negZero},
		{[]float64{0, 0, 0, -1, 0, 0.5, 0}, GE, negZero},
		{[]float64{1.5, -0.8, 0.6, 0.4, -1.2, 0.3, -0.7}, LE, 1.5},
		{[]float64{-0.9, 1.3, -0.5, 0.7, 0.8, -1.1, 0.4}, GE, -2.5},
		{[]float64{0.6, 0.6, -1.4, -0.5, 0.3, 0.9, -1.6}, LE, 2.5},
		{[]float64{-1.2, -0.4, 0.9, 1.1, -0.6, -0.8, 1.3}, GE, -4.5},
		{[]float64{0.3, -1.5, 0.2, -0.9, 1.4, 0.6, 0.5}, LE, 7},
	}
	rhs := make([]float64, len(rows))
	for i, r := range rows {
		p.AddConstraint(r.a, r.sense, r.rhs)
		rhs[i] = r.rhs
	}
	return p, rhs
}

// runShiftedChain drives one Solver through 4000 seeded SolveParams calls
// on shiftedProblem: right-hand sides perturbed around the compiled ones
// (the −0 rows alternate −0, +0 and small values; now and then a row is
// pushed hard enough to make the program infeasible), bounds moved within
// their class (the zero lower bound alternates +0 and −0), some calls with
// nil rhs or nil bounds, and a ResetWarm every 1000 calls. It returns the
// digest in accChainDigest's form, the final stats and how many solves
// started from a −0 entry of the standard-form rhs.
func runShiftedChain(t testing.TB) (string, SolveStats, int) {
	t.Helper()
	const calls = 4000
	p, rhs0 := shiftedProblem()
	s := NewSolver(p)
	n := p.NumVars()
	rng := rand.New(rand.NewSource(23))
	rhs := make([]float64, len(rhs0))
	lo := make([]float64, n)
	hi := make([]float64, n)
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	negZeroB := 0
	for call := 0; call < calls; call++ {
		if call > 0 && call%1000 == 0 {
			s.ResetWarm()
		}
		for i, b := range rhs0 {
			switch {
			case b == 0 && rng.Intn(3) == 0:
				rhs[i] = 0
			case b == 0 && rng.Intn(2) == 0:
				rhs[i] = b
			default:
				rhs[i] = b + 0.4*rng.NormFloat64()
			}
			if rng.Intn(400) == 0 {
				rhs[i] -= 30
			}
		}
		for j := 0; j < n; j++ {
			lo[j], hi[j] = p.Bounds(j)
			if lo[j] == 0 {
				if rng.Intn(2) == 0 {
					lo[j] = math.Copysign(0, -1)
				}
			} else if !math.IsInf(lo[j], -1) {
				lo[j] += 0.3 * rng.NormFloat64()
			}
			if !math.IsInf(hi[j], 1) {
				hi[j] += 0.3 * rng.NormFloat64()
			}
			if lo[j] > hi[j] {
				lo[j], hi[j] = hi[j], lo[j]
			}
		}
		r, l, u := rhs, lo, hi
		switch rng.Intn(8) {
		case 0:
			r = nil
		case 1:
			l, u = nil, nil
		}
		sol, ok := s.SolveParams(r, l, u)
		if !ok {
			t.Fatalf("call %d: bound class changed", call)
		}
		for _, b := range s.b {
			if b == 0 && math.Signbit(b) {
				negZeroB++
				break
			}
		}
		put(uint64(sol.Status))
		if sol.Status == Optimal {
			put(math.Float64bits(sol.Objective))
			for _, v := range sol.X {
				put(math.Float64bits(v))
			}
		}
		st := s.Stats()
		put(uint64(st.Cold))
		put(uint64(st.Warm))
		put(uint64(st.ColdPivots))
		put(uint64(st.WarmPivots))
	}
	return hex.EncodeToString(h.Sum(nil)), s.Stats(), negZeroB
}

// TestSolverShiftedChainDigest pins the shifted-variable path that the ACC
// chain never takes (all its shifts are +0): nonzero shifts, mirrored and
// split variables, upper-bound rows and −0 right-hand sides, through cold,
// warm and dual-repair solves.
func TestSolverShiftedChainDigest(t *testing.T) {
	got, st, negZero := runShiftedChain(t)
	if st.Cold <= 4 || st.Warm == 0 || st.WarmPivots == 0 {
		t.Fatalf("chain did not exercise the cold, warm and repair paths: %+v", st)
	}
	if negZero == 0 {
		t.Fatal("no solve started from a −0 standard-form rhs")
	}
	if got != shiftedChainDigest {
		t.Fatalf("shifted chain digest %s, want %s", got, shiftedChainDigest)
	}
}

// axpyNeg computes dst[j] −= f·src[j], 4-way unrolled: the dense row
// update the solver's pivot ran before it went sparse.
func axpyNeg(dst, src []float64, f float64) {
	n := len(dst)
	src = src[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		d := dst[j : j+4 : j+4]
		s := src[j : j+4 : j+4]
		d[0] -= f * s[0]
		d[1] -= f * s[1]
		d[2] -= f * s[2]
		d[3] -= f * s[3]
	}
	for ; j < n; j++ {
		dst[j] -= f * src[j]
	}
}

// pivotDense is the dense Gauss-Jordan pivot on row r, column c of v over
// m rows: every other row, and z, takes axpyNeg over the whole logical
// width. It is the oracle Solver.pivot must match.
func pivotDense(v tab, m int, basis []int, r, c int) {
	w := v.rhs + 1
	pr := v.t[r*v.stride : r*v.stride+w]
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		ti := v.t[i*v.stride : i*v.stride+w]
		f := ti[c]
		if f == 0 {
			continue
		}
		axpyNeg(ti, pr, f)
		ti[c] = 0
	}
	if f := v.z[c]; f != 0 {
		axpyNeg(v.z[:w], pr, f)
		v.z[c] = 0
	}
	basis[r] = c
}

// sameUpToZeroSign reports whether a and b are the same bits, or both
// zeros of any sign.
func sameUpToZeroSign(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// checkPivotAgreement compares a sparse-pivoted tab with a dense-pivoted
// one over m rows: the rhs column, z[rhs] and every nonzero entry must
// agree bit for bit and every other entry up to the sign of zero; cells
// past the logical width must still hold pad. Rows listed in exact took a
// non-finite multiplier and must agree bit for bit everywhere.
func checkPivotAgreement(t *testing.T, label string, sp, de tab, m int, pad float64, exact map[int]bool) {
	t.Helper()
	w := sp.rhs + 1
	check := func(row string, i int, a, b []float64, whole bool) {
		for j := range a {
			if j == sp.rhs || a[j] != 0 || b[j] != 0 || whole {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("%s: %s %d col %d: sparse %v (%#x), dense %v (%#x)",
						label, row, i, j, a[j], math.Float64bits(a[j]), b[j], math.Float64bits(b[j]))
				}
			} else if !sameUpToZeroSign(a[j], b[j]) {
				t.Fatalf("%s: %s %d col %d: sparse %v, dense %v", label, row, i, j, a[j], b[j])
			}
		}
	}
	for i := 0; i < m; i++ {
		ri := sp.t[i*sp.stride : (i+1)*sp.stride]
		check("row", i, ri[:w], de.t[i*de.stride:i*de.stride+w], exact[i])
		for j, v := range ri[w:] {
			if math.Float64bits(v) != math.Float64bits(pad) {
				t.Fatalf("%s: row %d col %d past the logical width was written: %v", label, i, w+j, v)
			}
		}
	}
	check("z", 0, sp.z[:w], de.z[:w], false)
}

// TestPivotSparseMatchesDense runs the sparse pivot against the dense
// oracle on tableaux the solver itself produced: each trial cold-solves a
// random LP (or the ACC RMPC program at a random point of X′) and then
// drives two copies of its optimal tableau through the same chain of
// random pivots, one with Solver.pivot and one with pivotDense, checking
// them after every pivot. The copies sit in a tab wider than the logical
// width, as phase 1's scratch is, and the padding must stay untouched.
// Every fourth pivot is also replayed from one snapshot with a few rows'
// multipliers set to ±Inf or NaN; those rows take the dense update and
// must match the oracle bit for bit.
func TestPivotSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := loadACCFixture(t)
	accRHS := make([]float64, len(f.Rows))
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	const pad = -123.25
	pivots, sparseRows := 0, 0
	for trial := 0; trial < 60; trial++ {
		var s *Solver
		if trial%10 == 0 {
			s = NewSolver(f.problem())
			for {
				x := [2]float64{120 + 60*rng.Float64(), 25 + 30*rng.Float64()}
				if f.inXPrime(x) {
					f.rhsAt(accRHS, x)
					break
				}
			}
			s.SolveRHS(accRHS)
		} else {
			p, _ := randomProblem(rng)
			s = NewSolver(p)
			s.Solve()
		}
		if !s.warm {
			continue
		}
		p := s.p
		stride := p.width + rng.Intn(4)
		widen := func() tab {
			v := tab{t: make([]float64, p.m*stride), z: make([]float64, stride), nz: make([]int, stride), stride: stride, rhs: p.total}
			for i := range v.t {
				v.t[i] = pad
			}
			for i := 0; i < p.m; i++ {
				copy(v.t[i*stride:], s.t[i*p.width:(i+1)*p.width])
			}
			copy(v.z, s.z)
			return v
		}
		sp, de := widen(), widen()
		spBasis := append([]int(nil), s.basis...)
		deBasis := append([]int(nil), s.basis...)
		for step := 0; step < 40; step++ {
			r := rng.Intn(p.m)
			c := -1
			for try := 0; try < 50 && c < 0; try++ {
				if j := rng.Intn(p.total); math.Abs(sp.t[r*stride+j]) > 1e-3 {
					c = j
				}
			}
			if c < 0 {
				continue
			}
			label := func(kind string) string {
				return fmt.Sprintf("trial %d step %d (%s pivot %d,%d)", trial, step, kind, r, c)
			}
			if step%4 == 0 {
				// Replay this pivot from one snapshot with non-finite
				// multipliers planted in a few rows.
				a, b := widen(), widen()
				copy(a.t, sp.t)
				copy(a.z, sp.z)
				copy(b.t, sp.t)
				copy(b.z, sp.z)
				exact := map[int]bool{}
				for k := 0; k < 3; k++ {
					if i := rng.Intn(p.m); i != r {
						v := nonFinite[rng.Intn(len(nonFinite))]
						a.t[i*stride+c], b.t[i*stride+c] = v, v
						exact[i] = true
					}
				}
				s.basis = append([]int(nil), spBasis...)
				s.pivot(a, r, c)
				pivotDense(b, p.m, append([]int(nil), spBasis...), r, c)
				checkPivotAgreement(t, label("non-finite"), a, b, p.m, pad, exact)
			}
			s.basis = spBasis
			s.pivot(sp, r, c)
			pivotDense(de, p.m, deBasis, r, c)
			checkPivotAgreement(t, label("chain"), sp, de, p.m, pad, nil)
			for i := range spBasis {
				if spBasis[i] != deBasis[i] {
					t.Fatalf("%s: basis[%d] %d vs %d", label("chain"), i, spBasis[i], deBasis[i])
				}
			}
			pivots++
			for j := 0; j < p.total; j++ {
				if sp.t[r*stride+j] == 0 {
					sparseRows++
					break
				}
			}
		}
	}
	if pivots < 1000 || sparseRows < pivots/2 {
		t.Fatalf("%d chain pivots, %d with a zero in the pivot row: the chains did not exercise the sparse update", pivots, sparseRows)
	}
}
