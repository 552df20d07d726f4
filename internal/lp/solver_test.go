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
	"slices"
	"sync"
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
// phase-1 dictionary, and the dictionary of a solver about to solve cold,
// poisoned before each call: NaN interleaved with finite junk (NaN alone
// hides a stale read from pricing, since no comparison with NaN holds),
// and the integer buffers (basis, the dictionaries' column indices,
// priced columns and gather lists, the transform's terms) filled with
// out-of-range indices. The pooled dictionary is poisoned at its largest
// phase-1 width, every column stored (each row an artificial). The cold
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
	poisonTab := func(d *tab) {
		fill(d.t[:cap(d.t)])
		fill(d.z[:cap(d.z)])
		junk(d.idx[:cap(d.idx)])
		junk(d.cols[:cap(d.cols)])
		junk(d.nz[:cap(d.nz)])
		d.stride, d.rhs, d.priced = 1<<20, 1<<20, -1
	}
	poisoned := 0
	got, _ := runACCChain(t, f, func(s *Solver) {
		sc := coldPool.Get().(*tab)
		sc.reshape(prog.m, prog.total)
		poisonTab(sc)
		coldPool.Put(sc)
		if d := &s.d; !s.warm && d.t != nil {
			poisonTab(d)
			junk(s.basis)
			junk(s.rank)
			for i := range s.terms[:cap(s.terms)] {
				s.terms[:cap(s.terms)][i] = slackTerm{col: 1 << 20, k: 1<<20 + i, g: math.NaN(), b: -7.5}
			}
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
// program at zero allocations: after the first cold solve, and the first
// warm resolve that sizes the transform's scratch, it reuses every buffer
// and never touches the cold scratch pool.
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
	if st := s.Stats(); st.Cold != 1 || st.Warm != i || st.WarmPivots == 0 || st.Repairs == 0 || st.Repairs == st.Warm {
		t.Fatalf("stats %+v after %d resolves: want every resolve warm, some with dual repair and some without", st, i)
	}
}

// TestSolverDictionaryFootprint pins the warm state's size: after a cold
// solve of the ACC program the solver's tableau is its dictionary, m ×
// (nonbasic + 1) float64s, 155 × 39, and 200 warm resolves along a walk
// through X′, with dual repairs, keep those buffers and never draw a
// phase-1 dictionary from the cold pool.
func TestSolverDictionaryFootprint(t *testing.T) {
	f := loadACCFixture(t)
	s := NewSolver(f.problem())
	rhs := make([]float64, s.NumRows())
	x := [2]float64{150, 40}
	f.rhsAt(rhs, x)
	if sol := s.SolveRHS(rhs); sol.Status != Optimal {
		t.Fatalf("cold solve: %v", sol.Status)
	}
	p, d := s.p, &s.d
	nn := p.total - p.m
	if p.m != 155 || nn != 38 || d.rhs != nn || d.stride != nn+1 {
		t.Fatalf("m %d, %d nonbasic columns, dictionary width %d: want 155 rows of 38 and the rhs", p.m, nn, d.stride)
	}
	if len(d.t) != p.m*(nn+1) || cap(d.t) != len(d.t) || cap(d.z) != nn+1 || cap(d.idx) != nn || cap(d.cols) != nn {
		t.Fatalf("dictionary buffers hold %d/%d cells, z %d, idx %d, cols %d: want %d, %d, %d, %d",
			len(d.t), cap(d.t), cap(d.z), cap(d.idx), cap(d.cols), p.m*(nn+1), nn+1, nn, nn)
	}
	saved := coldPool.New
	draws := 0
	coldPool = sync.Pool{New: func() any { draws++; return new(tab) }}
	defer func() { coldPool = sync.Pool{New: saved} }()
	first := &d.t[0]
	rng := rand.New(rand.NewSource(3))
	for call := 0; call < 200; call++ {
		if y := [2]float64{x[0] + 1.5*rng.NormFloat64(), x[1] + 0.8*rng.NormFloat64()}; f.inXPrime(y) {
			x = y
		}
		f.rhsAt(rhs, x)
		if sol := s.SolveRHS(rhs); sol.Status != Optimal {
			t.Fatalf("call %d: %v", call, sol.Status)
		}
	}
	if st := s.Stats(); st.Cold != 1 || st.Repairs == 0 {
		t.Fatalf("stats %+v: want 200 warm resolves, some repaired", st)
	}
	if &d.t[0] != first || cap(d.t) != p.m*(nn+1) || draws != 0 {
		t.Fatalf("warm resolves moved the dictionary or drew %d phase-1 dictionaries", draws)
	}
}

// slackTransformScalar is the warm rhs transform as one scalar loop per
// row through the slackCol/slackSgn maps over a dense tableau: the oracle
// slackTransform must match bit for bit. A nil basicIn sums every k; else
// row i leaves out the term of every slack k basic in another row
// (basicIn[k] ≥ 0, ≠ i).
func slackTransformScalar(dst, t []float64, stride int, slackCol []int, slackSgn, b []float64, basicIn []int) {
	m := len(dst)
	for i := 0; i < m; i++ {
		acc := 0.0
		ti := t[i*stride:]
		for k := 0; k < m; k++ {
			if bk := b[k]; bk != 0 && (basicIn == nil || basicIn[k] < 0 || basicIn[k] == i) {
				acc += ti[slackCol[k]] * slackSgn[k] * bk
			}
		}
		dst[i] = acc
	}
}

// denseOf expands a dictionary into the full tableau it stands for, m ×
// (total+1) with the rhs last, and its reduced-cost row: every stored
// live column at its original index, every basic column the unit vector
// of its row, and a zero reduced cost at every basic column.
func denseOf(d *tab, basis []int, total int) (t, z []float64) {
	m, w := len(basis), total+1
	t = make([]float64, m*w)
	z = make([]float64, w)
	for i, j := range basis {
		if j < total {
			t[i*w+j] = 1
		}
		for c, jc := range d.idx {
			if jc < total {
				t[i*w+jc] = d.t[i*d.stride+c]
			}
		}
		t[i*w+total] = d.t[i*d.stride+d.rhs]
	}
	for c, jc := range d.idx {
		if jc < total {
			z[jc] = d.z[c]
		}
	}
	z[total] = d.z[d.rhs]
	return t, z
}

// sameBitsOrNaN reports whether a and b are the same bits, or both NaN.
// Which payload survives when two NaNs meet in one add follows the operand
// order the compiler gives that add: IEEE 754 leaves it open, and a -race
// build of the scalar oracle orders it differently from a plain one. So a
// NaN's payload is no output's contract, and no digest, golden or pin
// holds a NaN.
func sameBitsOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestSlackTransformBitIdentical checks the dictionary's rhs transform
// against the scalar oracle on the dense tableau the dictionary stands
// for. The dictionaries are random: m covers 0..23, each row's basic
// column is a slack, a structural column or an artificial, a few stored
// columns are dropped artificials, the stored entries and rhs values mix
// zeros of both signs, subnormals, extreme magnitudes, infinities and NaN,
// and the slack signs mix LE and GE. Wherever every b_k is finite the two
// agree bit for bit on every row (a NaN as a NaN: sameBitsOrNaN). A
// non-finite b_k at a slack basic in row r turns every other row's dense
// sum into NaN, through the zero its unit column holds there (0·Inf is
// NaN); the dictionary never multiplies a basic column's zeros, so it must
// equal the oracle with those products left out (DESIGN.md §5.4).
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
	nonFiniteRows := 0
	for trial := 0; trial < 400; trial++ {
		m := rng.Intn(24)
		ncols := rng.Intn(6)
		total := ncols + m
		basis := rng.Perm(total)[:m]
		for i := range basis {
			if rng.Intn(6) == 0 {
				basis[i] = total + i // a redundant row's artificial
			}
		}
		isBasic := make([]bool, total)
		for _, j := range basis {
			if j < total {
				isBasic[j] = true
			}
		}
		var idx []int
		for j := 0; j < total; j++ {
			if !isBasic[j] {
				idx = append(idx, j)
			}
			if rng.Intn(12) == 0 {
				idx = append(idx, total+m+j) // a dropped artificial
			}
		}
		d := &tab{z: make([]float64, len(idx)+1), idx: idx, stride: len(idx) + 1, rhs: len(idx)}
		for c, j := range idx {
			if j < total {
				d.cols = append(d.cols, c)
			}
		}
		d.t = make([]float64, m*d.stride)
		// Some trials zero the whole dictionary or the whole rhs (with both
		// signs), so the sign of an empty or all-zero sum shows.
		mode := rng.Intn(8)
		for i := range d.t {
			if mode == 0 {
				d.t[i] = zero()
			} else {
				d.t[i] = draw()
			}
		}
		slackCol := make([]int, m)
		sgn := make([]float64, m)
		b := make([]float64, m)
		rowOf := make([]int, m) // row where slack k is basic, or −1
		for k := range b {
			slackCol[k] = ncols + k
			rowOf[k] = -1
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
		for i, j := range basis {
			if j >= ncols && j < total {
				rowOf[j-ncols] = i
			}
		}
		dense, _ := denseOf(d, basis, total)
		got := make([]float64, m)
		want := make([]float64, m)
		masked := make([]float64, m)
		slackTransform(got, d, basis, ncols, sgn, b, nil, make([]int, m))
		slackTransformScalar(want, dense, total+1, slackCol, sgn, b, nil)
		slackTransformScalar(masked, dense, total+1, slackCol, sgn, b, rowOf)
		for i := range got {
			if !sameBitsOrNaN(got[i], masked[i]) {
				t.Fatalf("trial %d (m=%d): row %d = %v (%#x), oracle without basic zeros %v (%#x)",
					trial, m, i, got[i], math.Float64bits(got[i]), masked[i], math.Float64bits(masked[i]))
			}
			nonFinite := false
			for k, r := range rowOf {
				if r >= 0 && r != i && (math.IsInf(b[k], 0) || math.IsNaN(b[k])) {
					nonFinite = true
				}
			}
			switch {
			case !nonFinite && !sameBitsOrNaN(got[i], want[i]):
				t.Fatalf("trial %d (m=%d): row %d = %v (%#x), dense oracle %v (%#x)",
					trial, m, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			case nonFinite && !math.IsNaN(want[i]):
				t.Fatalf("trial %d (m=%d): row %d: dense oracle %v, want NaN from a basic column's zero", trial, m, i, want[i])
			case nonFinite:
				nonFiniteRows++
			}
		}
	}
	if nonFiniteRows == 0 {
		t.Fatal("no row met a non-finite b_k at another row's basic slack")
	}
}

// TestSlackTransformMatchesSolverTableaux checks the transform on
// dictionaries the solver made: after each of 200 warm-chained solves of
// the ACC program at points of X′, and of 40 random programs under moved
// bounds, the transform of another point's rhs must equal the scalar
// oracle on the dense tableau the dictionary came from, bit for bit.
func TestSlackTransformMatchesSolverTableaux(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := loadACCFixture(t)
	acc := NewSolver(f.problem())
	rhs := make([]float64, acc.NumRows())
	point := func() [2]float64 {
		for {
			x := [2]float64{120 + 60*rng.Float64(), 25 + 30*rng.Float64()}
			if f.inXPrime(x) {
				return x
			}
		}
	}
	check := func(label string, s *Solver) {
		p := s.p
		slackCol := make([]int, p.m)
		for k := range slackCol {
			slackCol[k] = p.ncols + k
		}
		dense, _ := denseOf(&s.d, s.basis, p.total)
		got := make([]float64, p.m)
		want := make([]float64, p.m)
		s.terms = slackTransform(got, &s.d, s.basis, p.ncols, p.slackSgn, s.b, s.terms, s.rank)
		slackTransformScalar(want, dense, p.total+1, slackCol, p.slackSgn, s.b, nil)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: row %d = %v, dense oracle %v", label, i, got[i], want[i])
			}
		}
	}
	for call := 0; call < 200; call++ {
		f.rhsAt(rhs, point())
		if acc.SolveRHS(rhs).Status != Optimal {
			t.Fatalf("ACC call %d: not optimal", call)
		}
		f.rhsAt(rhs, point())
		acc.prepare(rhs)
		check(fmt.Sprintf("ACC call %d", call), acc)
	}
	for trial := 0; trial < 40; trial++ {
		p, rhs0 := randomProblem(rng)
		s := NewSolver(p)
		n := p.NumVars()
		lo, hi := make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			lo[j], hi[j] = p.Bounds(j)
			if !math.IsInf(lo[j], -1) {
				lo[j] -= rng.Float64()
			}
		}
		if sol, _ := s.SolveParams(nil, lo, hi); sol.Status != Optimal {
			continue
		}
		r := make([]float64, len(rhs0))
		for i, b := range rhs0 {
			r[i] = b + rng.NormFloat64()
		}
		s.prepare(r)
		check(fmt.Sprintf("random trial %d", trial), s)
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

// randomChainDigest pins runRandomChain the same way accChainDigest pins
// the ACC chain, recorded with the live-width dense tableau before the
// solver stored only its nonbasic columns.
const randomChainDigest = "622f7b05d3c7066b039394ee95dd068c33b1d861748b16adaa2fa3c97924d508"

// bealeProblem is Beale's example, which cycles under Dantzig's rule with
// smallest-index ties: with a zero rhs on its first two rows phase 2 runs
// blandTrip degenerate pivots before Bland's rule takes over.
func bealeProblem() (*Problem, []float64) {
	p := NewProblem(4)
	p.SetObjective([]float64{-0.75, 20, -0.5, 6})
	for j := 0; j < 4; j++ {
		p.SetBounds(j, 0, math.Inf(1))
	}
	rhs := []float64{0, 0, 1}
	p.AddConstraint([]float64{0.25, -8, -1, 9}, LE, rhs[0])
	p.AddConstraint([]float64{0.5, -12, -0.5, 3}, LE, rhs[1])
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, rhs[2])
	return p, rhs
}

// redundantProblem is randomProblem plus equality rows through the origin:
// a·x = 0, an exact multiple of it, and sometimes a near-copy that differs
// from it by less than phase 1's drive-out tolerance. The multiple leaves
// an artificial basic at zero after phase 1, and the near-copy one that
// phase 2 can pivot out. It also returns the equality rows' indices.
func redundantProblem(rng *rand.Rand) (*Problem, []float64, []int) {
	p, rhs := randomProblem(rng)
	n := p.NumVars()
	a := make([]float64, n)
	for j := range a {
		a[j] = rng.NormFloat64()
	}
	eq := []int{len(rhs)}
	p.AddConstraint(a, EQ, 0)
	a2 := make([]float64, n)
	for j := range a {
		a2[j] = -2 * a[j]
	}
	p.AddConstraint(a2, EQ, 0)
	eq = append(eq, len(rhs)+1)
	rhs = append(rhs, 0, 0)
	if rng.Intn(2) == 0 {
		a3 := append([]float64(nil), a...)
		a3[rng.Intn(n)] += 5e-8
		p.AddConstraint(a3, EQ, 0)
		eq = append(eq, len(rhs))
		rhs = append(rhs, 0)
	}
	return p, rhs, eq
}

// randomChainShapes counts what runRandomChain reached.
type randomChainShapes struct {
	geRows, bland, basicArtificial, eqSolves, repairs, infeasible int
}

// runRandomChain drives 48 programs through 60 seeded SolveRHS and
// SolveParams calls each: randomProblem programs (GE rows, every bound
// class), redundantProblem programs (equality rows, which always solve
// cold, some leaving an artificial basic at zero) and Beale's cycling
// program (Dantzig past blandTrip, then Bland). Right-hand sides move
// around the compiled ones, now and then hard enough to make the program
// infeasible; equality rows move together so they stay consistent;
// bounds move within their class; ResetWarm forces cold solves. It
// returns the digest in accChainDigest's form and the shapes it reached.
func runRandomChain(t testing.TB) (string, randomChainShapes) {
	t.Helper()
	rng := rand.New(rand.NewSource(37))
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	var sh randomChainShapes
	for prog := 0; prog < 48; prog++ {
		var (
			p    *Problem
			rhs0 []float64
			eq   []int
		)
		switch prog % 4 {
		case 0, 1:
			p, rhs0 = randomProblem(rng)
		case 2:
			p, rhs0, eq = redundantProblem(rng)
		default:
			p, rhs0 = bealeProblem()
		}
		beale := prog%4 == 3
		for _, r := range p.rows {
			if r.sense == GE {
				sh.geRows++
			}
		}
		s := NewSolver(p)
		n := p.NumVars()
		rhs := make([]float64, len(rhs0))
		lo := make([]float64, n)
		hi := make([]float64, n)
		for call := 0; call < 60; call++ {
			if rng.Intn(15) == 0 || (beale && call%10 == 0) {
				s.ResetWarm()
			}
			for i, b := range rhs0 {
				rhs[i] = b + 0.5*rng.NormFloat64()
				if rng.Intn(60) == 0 {
					rhs[i] -= 20
				}
			}
			if beale {
				rhs[0], rhs[1] = 0, 0
			}
			if len(eq) > 0 {
				r := 0.0
				if rng.Intn(3) == 0 {
					r = 0.3 * rng.NormFloat64()
				}
				rhs[eq[0]], rhs[eq[1]] = r, -2*r
				if len(eq) > 2 {
					rhs[eq[2]] = r
				}
			}
			before := s.Stats()
			var sol *Solution
			if !beale && rng.Intn(3) == 0 {
				for j := 0; j < n; j++ {
					lo[j], hi[j] = p.Bounds(j)
					if !math.IsInf(lo[j], -1) {
						lo[j] += 0.5 * rng.Float64()
					}
					if !math.IsInf(hi[j], 1) {
						hi[j] -= 0.5 * rng.Float64()
					}
					if lo[j] > hi[j] {
						lo[j], hi[j] = hi[j], lo[j]
					}
				}
				var ok bool
				if sol, ok = s.SolveParams(rhs, lo, hi); !ok {
					t.Fatalf("program %d call %d: bound class changed", prog, call)
				}
			} else {
				sol = s.SolveRHS(rhs)
			}
			st := s.Stats()
			if st.ColdPivots-before.ColdPivots > blandTrip {
				sh.bland++
			}
			if st.WarmPivots > before.WarmPivots {
				sh.repairs++
			}
			if len(eq) > 0 {
				sh.eqSolves++
			}
			if sol.Status == Infeasible {
				sh.infeasible++
			}
			if sol.Status == Optimal {
				for _, j := range s.basis {
					if j >= s.p.total {
						sh.basicArtificial++
						break
					}
				}
			}
			put(uint64(sol.Status))
			if sol.Status == Optimal {
				put(math.Float64bits(sol.Objective))
				for _, v := range sol.X {
					put(math.Float64bits(v))
				}
			}
			put(uint64(st.Cold))
			put(uint64(st.Warm))
			put(uint64(st.ColdPivots))
			put(uint64(st.WarmPivots))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), sh
}

// TestSolverRandomChainDigest pins the shapes the ACC and shifted chains
// never reach: GE rows, degenerate ties past blandTrip, redundant rows
// that leave an artificial basic at zero, and equality rows, which always
// solve cold.
func TestSolverRandomChainDigest(t *testing.T) {
	got, sh := runRandomChain(t)
	if sh.geRows == 0 || sh.bland == 0 || sh.basicArtificial == 0 || sh.eqSolves == 0 || sh.repairs == 0 || sh.infeasible == 0 {
		t.Fatalf("chain did not reach every shape: %+v", sh)
	}
	if got != randomChainDigest {
		t.Fatalf("random chain digest %s, want %s", got, randomChainDigest)
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

// fullResult is what fullTableauSolve found.
type fullResult struct {
	status    Status
	basis     []int
	x         []float64
	obj       float64
	pivots    int
	total     int  // live columns: a basis entry at or above it is an artificial
	nart      int  // artificials phase 1 started with
	nonFinite bool // some tableau cell or reduced cost went ±Inf or NaN
}

// fullTableauSolve is the cold two-phase simplex on the full tableau, the
// reference the solver's dictionaries must reproduce. It reads s's
// compiled program and prepared b and shifts and builds m × (total +
// nart + 1) cells: every column at its own index, the nart artificials
// after the live columns in row order, the rhs last. It pivots with
// pivotDense and follows the solver's rules: each row negated when its
// b < 0; a column with one nonzero, a +1, seeds its row, later columns
// first, and an artificial seeds every other row; Dantzig pricing, then
// Bland after blandTrip pivots of one loop; ratio ties to the smallest
// basis index; phase 1 prices every column, departed artificials
// included, and drives each artificial left basic out on its row's first
// live entry above 1e-7; phase-2 pricing leaves the artificials out.
func fullTableauSolve(s *Solver) fullResult {
	p := s.p
	m, total := p.m, p.total
	res := fullResult{basis: make([]int, m), total: total}
	ones := make([]int, total)
	rowOf := make([]int, total)
	for i := 0; i < m; i++ {
		for j := 0; j < total; j++ {
			if p.sf[i*total+j] != 0 {
				ones[j]++
				rowOf[j] = i
			}
		}
		res.basis[i] = -1
	}
	norm := func(i, j int) float64 {
		if s.b[i] < 0 {
			return -p.sf[i*total+j]
		}
		return p.sf[i*total+j]
	}
	for j := total - 1; j >= 0; j-- {
		if i := rowOf[j]; ones[j] == 1 && res.basis[i] == -1 && norm(i, j) == 1 {
			res.basis[i] = j
		}
	}
	art := total
	for i, j := range res.basis {
		if j < 0 {
			res.basis[i] = art
			art++
		}
	}
	res.nart = art - total
	w := art + 1
	v := tab{t: make([]float64, m*w), z: make([]float64, w), stride: w, rhs: art}
	for i := 0; i < m; i++ {
		ti := v.t[i*w : (i+1)*w]
		for j := 0; j < total; j++ {
			ti[j] = norm(i, j)
		}
		if j := res.basis[i]; j >= total {
			ti[j] = 1
		}
		if ti[art] = s.b[i]; s.b[i] < 0 {
			ti[art] = -s.b[i] // a −0 rhs stays −0
		}
	}
	finite := func() bool {
		for _, buf := range [][]float64{v.t, v.z} {
			for _, x := range buf {
				if math.IsInf(x, 0) || math.IsNaN(x) {
					return false
				}
			}
		}
		return true
	}
	pivot := func(r, c int) {
		pivotDense(v, m, res.basis, r, c)
		res.pivots++
		res.nonFinite = res.nonFinite || !finite()
	}
	iterate := func(priced int) Status {
		for iter := 0; iter < iterCap; iter++ {
			enter := -1
			best := -eps
			for j := 0; j < priced; j++ {
				if v.z[j] < best {
					best, enter = v.z[j], j
					if iter > blandTrip {
						break
					}
				}
			}
			if enter == -1 {
				return Optimal
			}
			leave := -1
			bestRatio := math.Inf(1)
			for i := 0; i < m; i++ {
				ti := v.t[i*w:]
				if ti[enter] > eps {
					ratio := ti[art] / ti[enter]
					if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave == -1 || res.basis[i] < res.basis[leave])) {
						bestRatio, leave = ratio, i
					}
				}
			}
			if leave == -1 {
				return Unbounded
			}
			pivot(leave, enter)
		}
		return IterLimit
	}

	if art > total {
		for i, j := range res.basis {
			if j >= total {
				for k := range v.z {
					v.z[k] -= v.t[i*w+k]
				}
			}
		}
		for _, j := range res.basis {
			v.z[j] = 0
		}
		if res.status = iterate(art); res.status != Optimal {
			return res
		}
		if -v.z[art] > 1e-7 {
			res.status = Infeasible
			return res
		}
		for i := 0; i < m; i++ {
			if res.basis[i] < total {
				continue
			}
			for j := 0; j < total; j++ {
				if math.Abs(v.t[i*w+j]) > 1e-7 {
					pivot(i, j)
					break
				}
			}
		}
	}

	for k := range v.z {
		v.z[k] = 0
	}
	copy(v.z, p.cost)
	for i, j := range res.basis {
		if j >= total || p.cost[j] == 0 {
			continue
		}
		for k := range v.z {
			v.z[k] -= p.cost[j] * v.t[i*w+k]
		}
	}
	if res.status = iterate(total); res.status != Optimal {
		return res
	}
	y := make([]float64, total)
	for i, j := range res.basis {
		if j < total {
			y[j] = v.t[i*w+art]
		}
	}
	res.x = make([]float64, p.n)
	for j, mp := range p.maps {
		switch mp.kind {
		case 0:
			res.x[j] = s.shift[j] + y[mp.col]
		case 1:
			res.x[j] = s.shift[j] - y[mp.col]
		case 2:
			res.x[j] = y[mp.col] - y[mp.col2]
		}
		res.obj += p.c[j] * res.x[j]
	}
	return res
}

// coldCoefs are the values the cold-path comparisons draw coefficients,
// bounds and right-hand sides from: zeros and ±1 make unit columns, and
// small fractions make ties and degenerate vertices common.
var coldCoefs = []float64{0, 0, 1, -1, 1, 0.5, -0.5, 2, -3, 0.25, 1.5, -0.75}

// drawColdProgram builds a program from the choices pick returns, each in
// [0, n): 1–5 variables, each free, bounded below, bounded above or
// doubly bounded, and 1–8 rows, half LE and a quarter each GE and EQ,
// with right-hand sides of
// either sign, a quarter of them (after the first) an earlier row times
// 1, −1 or 2, which makes a redundant row (or an inconsistent one when
// its rhs does not follow).
func drawColdProgram(pick func(n int) int) *Problem {
	draw := func() float64 { return coldCoefs[pick(len(coldCoefs))] }
	n := 1 + pick(5)
	p := NewProblem(n)
	c := make([]float64, n)
	for j := range c {
		c[j] = draw()
	}
	p.SetObjective(c)
	for j := 0; j < n; j++ {
		switch b := draw(); pick(4) {
		case 1:
			p.SetBounds(j, b, math.Inf(1))
		case 2:
			p.SetBounds(j, math.Inf(-1), b)
		case 3:
			p.SetBounds(j, b, b+float64(pick(4)))
		}
	}
	rows := 1 + pick(8)
	for i := 0; i < rows; i++ {
		a := make([]float64, n)
		sense := []Sense{LE, LE, GE, EQ}[pick(4)]
		rhs := draw() * float64(1+pick(4))
		if i > 0 && pick(4) == 0 {
			r := p.rows[pick(i)]
			f := []float64{1, -1, 2}[pick(3)]
			for j := range a {
				a[j] = f * r.coeffs[j]
			}
			sense = r.sense
			if f < 0 && sense != EQ {
				sense = 1 - sense // LE ↔ GE
			}
			if pick(3) > 0 {
				rhs = f * r.rhs
			}
		} else {
			for j := range a {
				a[j] = draw()
			}
		}
		p.AddConstraint(a, sense, rhs)
	}
	return p
}

// coldMatchesFull cold-solves p on a fresh Solver and on the full tableau
// and requires the same status, final basis and pivot count and, when
// optimal, the same bits in every X and the objective. It checks nothing
// and returns ok false when the full tableau went non-finite, where a
// dictionary may differ (DESIGN.md §5.4).
func coldMatchesFull(t *testing.T, label string, p *Problem) (ref fullResult, ok bool) {
	t.Helper()
	s := NewSolver(p)
	sol := s.Solve()
	r := s.Fork()
	r.prepare(nil)
	ref = fullTableauSolve(r)
	if ref.nonFinite {
		return ref, false
	}
	if sol.Status != ref.status {
		t.Fatalf("%s: status %v, full tableau %v", label, sol.Status, ref.status)
	}
	for i, j := range s.basis {
		if j != ref.basis[i] {
			t.Fatalf("%s (%v): basis %v, full tableau %v", label, sol.Status, s.basis, ref.basis)
		}
	}
	if sol.Status != Optimal {
		return ref, true
	}
	if st := s.Stats(); st.ColdPivots != ref.pivots {
		t.Fatalf("%s: %d pivots, full tableau %d", label, st.ColdPivots, ref.pivots)
	}
	for j, x := range sol.X {
		if math.Float64bits(x) != math.Float64bits(ref.x[j]) {
			t.Fatalf("%s: x[%d] = %v (%#x), full tableau %v (%#x)", label, j, x, math.Float64bits(x), ref.x[j], math.Float64bits(ref.x[j]))
		}
	}
	if math.Float64bits(sol.Objective) != math.Float64bits(ref.obj) {
		t.Fatalf("%s: objective %v, full tableau %v", label, sol.Objective, ref.obj)
	}
	return ref, true
}

// TestColdSolveMatchesFullTableau holds the cold path, phase 1 on a pooled
// dictionary and phase 2 on the solver's, to the full-tableau reference
// over 4000 seeded random programs (drawColdProgram). It also requires
// that the programs reached the outcomes and shapes the comparison is
// about: optimal, infeasible and unbounded programs, negative right-hand
// sides, optimal programs that needed artificials, and optimal programs
// with a redundant row whose artificial stayed basic.
func TestColdSolveMatchesFullTableau(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var statuses [IterLimit + 1]int
	negRHS, withArt, basicArt, skipped := 0, 0, 0, 0
	for trial := 0; trial < 4000; trial++ {
		p := drawColdProgram(rng.Intn)
		ref, ok := coldMatchesFull(t, fmt.Sprintf("trial %d", trial), p)
		if !ok {
			skipped++
			continue
		}
		statuses[ref.status]++
		for _, r := range p.rows {
			if r.rhs < 0 {
				negRHS++
				break
			}
		}
		if ref.status != Optimal || ref.nart == 0 {
			continue
		}
		withArt++
		if slices.Max(ref.basis) >= ref.total {
			basicArt++
		}
	}
	t.Logf("statuses %v, %d with a negative rhs, %d optimal with artificials, %d of them kept one basic, %d skipped",
		statuses, negRHS, withArt, basicArt, skipped)
	if statuses[Optimal] == 0 || statuses[Infeasible] == 0 || statuses[Unbounded] == 0 || negRHS == 0 || withArt == 0 || basicArt == 0 {
		t.Fatalf("statuses %v, %d with a negative rhs, %d optimal with artificials, %d kept one basic: the programs missed a shape",
			statuses, negRHS, withArt, basicArt)
	}
}

// FuzzColdSolveMatchesFullTableau runs coldMatchesFull on programs
// decoded from the input, one byte per choice of drawColdProgram (a
// missing byte reads as 0): at most 5 variables and 8 rows, every
// coefficient, bound and rhs from coldCoefs. An input whose full tableau
// goes non-finite is skipped.
func FuzzColdSolveMatchesFullTableau(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 2, 3, 5, 9, 1, 0, 2, 6, 3, 7, 1, 11, 2, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{2, 1, 3, 0, 0, 7, 1, 2, 4, 2, 0, 3, 1, 0, 3, 0, 0, 1, 2, 1, 0, 2, 2, 8, 3, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		coldMatchesFull(t, "fuzz input", drawColdProgram(pick))
	})
}

// sameUpToZeroSign reports whether a and b are the same bits, or both
// zeros of any sign.
func sameUpToZeroSign(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// cloneTab deep-copies a tab's slices.
func cloneTab(v tab) tab {
	v.t = append([]float64(nil), v.t...)
	v.z = append([]float64(nil), v.z...)
	v.nz = append([]int(nil), v.nz...)
	v.cols = append([]int(nil), v.cols...)
	v.idx = append([]int(nil), v.idx...)
	return v
}

// checkDictAgreement compares a dictionary with the full live-width
// tableau it tracks. Every stored live column must match the full column
// of its original index: bit for bit on the rhs column and z[rhs], and in
// the rows listed in exact (they took a non-finite multiplier), up to the
// sign of zero elsewhere. Every basic column of the full tableau must be
// its row's unit vector up to the sign of zero, except in exact rows,
// whose basic columns the dense update fills with NaN, and cols must list
// the live columns in ascending original index.
func checkDictAgreement(t *testing.T, label string, d tab, basis []int, full tab, total int, exact map[int]bool) {
	t.Helper()
	m := len(basis)
	same := func(what string, i, j int, a, b float64, bitwise bool) {
		if bitwise || a != 0 || b != 0 {
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: %s %d col %d: dictionary %v (%#x), dense %v (%#x)",
					label, what, i, j, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		} else if !sameUpToZeroSign(a, b) {
			t.Fatalf("%s: %s %d col %d: dictionary %v, dense %v", label, what, i, j, a, b)
		}
	}
	for i := 0; i < m; i++ {
		di := d.t[i*d.stride : (i+1)*d.stride]
		fi := full.t[i*full.stride : i*full.stride+total+1]
		for c, j := range d.idx {
			if j < total {
				same("row", i, j, di[c], fi[j], exact[i])
			}
		}
		same("row", i, total, di[d.rhs], fi[total], true)
		if exact[i] {
			continue
		}
		for r, j := range basis {
			if j >= total {
				continue
			}
			want := 0.0
			if r == i {
				want = 1
			}
			if !sameUpToZeroSign(fi[j], want) {
				t.Fatalf("%s: basic column %d (row %d) holds %v in row %d", label, j, r, fi[j], i)
			}
		}
	}
	for c, j := range d.idx {
		if j < total {
			same("z", 0, j, d.z[c], full.z[j], false)
		}
	}
	same("z", 0, total, d.z[d.rhs], full.z[total], true)
	live := 0
	for _, j := range d.idx {
		if j < total {
			live++
		}
	}
	if len(d.cols) != live {
		t.Fatalf("%s: cols lists %d columns, %d are live", label, len(d.cols), live)
	}
	for k, c := range d.cols {
		if d.idx[c] >= total || (k > 0 && d.idx[d.cols[k-1]] >= d.idx[c]) {
			t.Fatalf("%s: cols %v not the live columns in ascending index (idx %v)", label, d.cols, d.idx)
		}
	}
}

// TestPivotDictMatchesDense runs the dictionary pivot against the dense
// oracle: each trial cold-solves a random LP, a redundantProblem (an
// artificial stays basic, and pivoting its row out drops a column) or the
// ACC RMPC program at a random point of X′, expands its dictionary into
// the full live-width tableau and drives both through the same chain of
// random pivots, one with Solver.pivot on a copy of the dictionary and one
// with pivotDense on the full tableau, checking them after every pivot
// with checkDictAgreement. Every fourth pivot is also replayed from one
// snapshot with ±Inf or NaN multipliers planted in a few rows. It counts
// the pivots, replays included, that took each row update (gatherBelow)
// and fails unless both kernels ran.
func TestPivotDictMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := loadACCFixture(t)
	accRHS := make([]float64, len(f.Rows))
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	pivots, drops := 0, 0
	dense, sparse := 0, 0 // pivots whose row update ran dense, gathered
	count := func(d *tab, r int) {
		if gathered(d, r) {
			sparse++
		} else {
			dense++
		}
	}
	for trial := 0; trial < 90; trial++ {
		var s *Solver
		switch {
		case trial%10 == 0:
			s = NewSolver(f.problem())
			for {
				x := [2]float64{120 + 60*rng.Float64(), 25 + 30*rng.Float64()}
				if f.inXPrime(x) {
					f.rhsAt(accRHS, x)
					break
				}
			}
			s.SolveRHS(accRHS)
		case trial%3 == 0:
			p, _, _ := redundantProblem(rng)
			s = NewSolver(p)
			s.Solve()
		default:
			p, _ := randomProblem(rng)
			s = NewSolver(p)
			s.Solve()
		}
		if !s.warm {
			continue
		}
		p := s.p
		w := p.total + 1
		ft, fz := denseOf(&s.d, s.basis, p.total)
		de := tab{t: ft, z: fz, stride: w, rhs: p.total}
		dc := cloneTab(s.d)
		dcBasis := append([]int(nil), s.basis...)
		deBasis := append([]int(nil), s.basis...)
		for step := 0; step < 40; step++ {
			r := rng.Intn(p.m)
			// A basic artificial's row holds only tiny entries: accept
			// any pivot the ratio test could take there.
			tol := 1e-3
			if dcBasis[r] >= p.total {
				tol = eps
			}
			c := -1
			for try := 0; try < 50 && c < 0 && len(dc.cols) > 0; try++ {
				if cc := dc.cols[rng.Intn(len(dc.cols))]; math.Abs(dc.t[r*dc.stride+cc]) > tol {
					c = cc
				}
			}
			if c < 0 {
				continue
			}
			j := dc.idx[c]
			label := func(kind string) string {
				return fmt.Sprintf("trial %d step %d (%s pivot %d, column %d)", trial, step, kind, r, j)
			}
			if step%4 == 0 {
				a, b := cloneTab(dc), cloneTab(de)
				exact := map[int]bool{}
				for k := 0; k < 3; k++ {
					if i := rng.Intn(p.m); i != r {
						v := nonFinite[rng.Intn(len(nonFinite))]
						a.t[i*a.stride+c], b.t[i*w+j] = v, v
						exact[i] = true
					}
				}
				s.basis = append([]int(nil), dcBasis...)
				s.pivot(&a, r, c)
				count(&a, r)
				pivotDense(b, p.m, append([]int(nil), dcBasis...), r, j)
				checkDictAgreement(t, label("non-finite"), a, s.basis, b, p.total, exact)
			}
			if dcBasis[r] >= p.total {
				drops++
			}
			s.basis = dcBasis
			s.pivot(&dc, r, c)
			count(&dc, r)
			pivotDense(de, p.m, deBasis, r, j)
			for i := range dcBasis {
				if dcBasis[i] != deBasis[i] {
					t.Fatalf("%s: basis[%d] %d vs %d", label("chain"), i, dcBasis[i], deBasis[i])
				}
			}
			checkDictAgreement(t, label("chain"), dc, dcBasis, de, p.total, nil)
			pivots++
		}
	}
	if pivots < 1500 || drops == 0 {
		t.Fatalf("%d chain pivots, %d dropping an artificial's column: the chains did not exercise the dictionary", pivots, drops)
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("%d pivots ran the dense update and %d the gathered one: want both", dense, sparse)
	}
	t.Logf("%d pivots dense, %d gathered", dense, sparse)
}

// gathered reports whether the pivot just applied on row r of d took the
// gathered row update: row r holds the scaled pivot row the gather read.
func gathered(d *tab, r int) bool {
	n := 1 // the rhs is always in the list
	for _, v := range d.t[r*d.stride : r*d.stride+d.rhs] {
		if v != 0 {
			n++
		}
	}
	return gatherBelow*n < d.rhs+1
}
