package lp

import (
	"math"
	"sync"
)

// This file implements the compiled parametric solver behind Problem.Solve
// and the hot resolve paths of the RMPC and MIP layers (DESIGN.md §5.3).
//
// A Solver separates *compile* from *solve*: the standard-form conversion
// (variable maps, slack layout, the constraint matrix, and the objective)
// depends only on the problem's structure, while the right-hand sides and
// the variable bounds are per-solve parameters. Compiling once and
// resolving with fresh parameters is what makes the RMPC's per-step LP an
// O(rows) refresh instead of a full rebuild, and lets branch-and-bound
// nodes share one compiled form.
//
// Warm starts: for programs in which every row carries a slack column (no
// equality rows — the shape of every polytope, RMPC, and MIP program in
// this repository), the final tableau's slack block is B⁻¹ up to the
// compiled slack signs. A new right-hand side therefore costs one O(m²)
// basis transform; if the transformed column stays nonnegative the
// previous basis is still optimal (zero pivots), otherwise the basis is
// primal-infeasible but dual-feasible and a dual-simplex loop repairs it.
// Any failure (iteration cap, basic artificials, equality rows) falls back
// to the cold two-phase path, so warm starts never change solvability.
//
// Storage: the compiled program holds only the structural block of the
// standard-form matrix; each slack column is ±e_i, known from its row.
// A Solver keeps its tableau as a dictionary — only the nonbasic
// columns, then the rhs, with each stored column's original index and the
// basis beside them. Every basic column is an exact unit vector, so the
// stored columns and the basis determine the whole tableau. A pivot hands
// the entering column's slot to the leaving variable. Phase 1 runs on a
// dictionary too, drawn from a package-level pool for its duration: it
// starts with every column no row seeded, each artificial that leaves the
// basis takes the entering column's slot, and phase-1 pricing reads those
// slots as a full tableau reads the artificial columns. Once phase 1 ends nothing reads
// an artificial column (phase-2 pricing and the dual simplex price only
// structural and slack columns, and the ratio test, extract and the
// basic-artificial check read only the entering column, the rhs and the
// basis), so the live slots are compacted into the solver's dictionary
// and every later pivot drops a leaving artificial's slot from pricing.
// Artificial basis indices keep their values ≥ total, so tie-breaks and
// the basic-artificial exit read exactly what they read before. Every
// scan whose result depends on column order walks the stored columns in
// ascending original index (DESIGN.md §5.4).

// upperRow is a compiled "y_col ≤ hi − lo" row for a doubly bounded
// variable.
type upperRow struct {
	v   int // original variable index
	col int // standard-form column of the shifted variable
}

// shiftTerm is one coefficient of a row on a shifted or mirrored
// variable.
type shiftTerm struct {
	v    int // original variable index
	coef float64
}

// boundClass encodes which bounds of a variable are finite; parametric
// bound changes must preserve it (the standard-form structure depends on
// it).
type boundClass uint8

const (
	classLower boundClass = 1 << iota // lower bound finite
	classUpper                        // upper bound finite
)

func classOf(lo, hi float64) boundClass {
	var c boundClass
	if !math.IsInf(lo, -1) {
		c |= classLower
	}
	if !math.IsInf(hi, 1) {
		c |= classUpper
	}
	return c
}

// program is the immutable compiled form of a Problem: everything about
// the standard-form conversion that does not depend on the right-hand
// sides or the bound values. Solvers forked from one compile share it;
// only an Objectives, which shares its program with no Solver, rewrites
// its cost and c.
//
// The standard-form matrix is [S | Σ]: the m × ncols structural block S,
// stored in sf, then one slack column per LE, GE and upper-bound row, in
// row order. A slack column is ±e_i, known from its row (unitRow) and
// that row's slackSgn, so the m × m slack block is never stored.
type program struct {
	n  int // original variables
	m0 int // original constraint rows
	m  int // total rows = m0 + len(uppers)

	maps   []varMap
	class  []boundClass
	uppers []upperRow

	ncols int // structural (variable) columns
	total int // ncols + slack columns

	rhs      []float64 // compiled right-hand sides of the original rows
	sf       []float64 // m × ncols flat structural block of the standard-form matrix
	unitRow  []int     // per column: the row of its only nonzero; < 0 when it has none or several
	slackSgn []float64 // per row: +1 (LE / upper), −1 (GE), 0 (EQ)
	allSlack bool      // every row has a slack column: warm starts possible

	// Row i's nonzero coefficients on shifted and mirrored (non-split)
	// variables, in variable order, are terms[termRow[i]:termRow[i+1]]:
	// exactly the products prepare subtracts from the rhs.
	terms   []shiftTerm
	termRow []int

	cost  []float64 // standard-form objective (len total)
	c     []float64 // original objective
	lower []float64 // compiled bounds
	upper []float64
}

// Solver is a compiled Problem plus a reusable solve workspace. It is the
// allocation-free resolve engine: after the first solve, subsequent solves
// with new parameters reuse every buffer and warm-start from the previous
// optimal basis.
//
// A Solver snapshots the Problem at NewSolver time; later mutations of the
// Problem are not seen. Solvers are not safe for concurrent use — use
// Fork to give each goroutine (or each deterministic call chain) its own
// workspace over the shared compiled form.
type Solver struct {
	p *program

	// Per-solve parameter bounds (active only while paramBounds is set).
	lo, hi      []float64
	paramBounds bool

	// Workspace (lazily allocated, then reused).
	shift []float64 // current shift per variable, derived from lo/hi
	b     []float64 // standard-form rhs (shift-adjusted, unnormalized)
	newb  []float64 // candidate warm rhs column

	d     tab         // the dictionary: nonbasic columns, then the rhs; z kept across warm solves
	basis []int       // per row: the original index of its basic column (≥ total: an artificial)
	terms []slackTerm // warm rhs transform scratch
	rank  []int

	// Warm-start state.
	warm   bool // tableau/basis/z hold an optimal basis for the compiled cost
	pivots int  // pivots since the last cold solve (drift guard)

	y   []float64 // standard-form solution
	sol Solution  // reused result; sol.X aliases the x buffer below
	x   []float64

	stats SolveStats
}

// SolveStats counts which path solves on a Solver took — the direct
// evidence that a hot loop is actually warm-starting — and how many
// pivots each path spent.
type SolveStats struct {
	Cold       int // cold two-phase solves (first call, fallbacks, refactorizations)
	Warm       int // warm resolves from the previous basis (incl. zero-pivot hits)
	Repairs    int // warm resolves that took at least one dual pivot
	ColdPivots int // pivots spent in successful cold solves
	WarmPivots int // dual-simplex pivots spent in warm resolves
}

// Stats returns the solve-path counters accumulated since construction or
// Fork.
func (s *Solver) Stats() SolveStats { return s.stats }

// refactorEvery bounds the pivots applied to one tableau before a cold
// refactorization, so floating-point drift from long warm chains stays
// comparable to a handful of cold solves.
const refactorEvery = 1024

// NewSolver compiles p into a parametric solver. The problem's rows,
// objective, and bounds are snapshotted; solve-time parameters override
// the right-hand sides and bound values but not the structure.
func NewSolver(p *Problem) *Solver { return &Solver{p: compile(p)} }

// compile converts p to standard form: the variable maps, the structural
// block, the slack layout, the compiled rows and bounds, and the cost.
func compile(p *Problem) *program {
	pr := &program{
		n:     p.n,
		m0:    len(p.rows),
		maps:  make([]varMap, p.n),
		class: make([]boundClass, p.n),
		lower: append([]float64(nil), p.lower...),
		upper: append([]float64(nil), p.upper...),
	}

	// Variable maps, mirroring Problem.Solve's historical construction
	// order exactly (cold solves must agree bitwise with the original
	// from-scratch path).
	ncols := 0
	for j := 0; j < p.n; j++ {
		lo, hi := p.lower[j], p.upper[j]
		pr.class[j] = classOf(lo, hi)
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			pr.maps[j] = varMap{kind: 2, col: ncols, col2: ncols + 1}
			ncols += 2
		case !math.IsInf(lo, -1):
			pr.maps[j] = varMap{kind: 0, col: ncols, shift: lo}
			if !math.IsInf(hi, 1) {
				pr.uppers = append(pr.uppers, upperRow{v: j, col: ncols})
			}
			ncols++
		default: // upper bound only
			pr.maps[j] = varMap{kind: 1, col: ncols, shift: hi}
			ncols++
		}
	}
	pr.ncols = ncols
	pr.m = pr.m0 + len(pr.uppers)

	slackCols := 0
	for _, r := range p.rows {
		if r.sense != EQ {
			slackCols++
		}
	}
	slackCols += len(pr.uppers)
	pr.total = ncols + slackCols

	// The structural block, the compiled right-hand sides, and each row's
	// shift terms. All three are copies, so later Problem mutations cannot
	// reach the compiled form. A slack column's only nonzero is its row's.
	pr.rhs = make([]float64, pr.m0)
	pr.termRow = make([]int, pr.m0+1)
	pr.sf = make([]float64, pr.m*ncols)
	pr.slackSgn = make([]float64, pr.m)
	pr.unitRow = make([]int, pr.total)
	pr.allSlack = true
	slack := ncols
	for i, r := range p.rows {
		pr.rhs[i] = r.rhs
		ro := pr.sf[i*ncols : (i+1)*ncols]
		for j, coef := range r.coeffs {
			if coef == 0 {
				continue
			}
			m := pr.maps[j]
			switch m.kind {
			case 0:
				ro[m.col] += coef
			case 1:
				ro[m.col] -= coef
			case 2:
				ro[m.col] += coef
				ro[m.col2] -= coef
			}
			if m.kind != 2 {
				pr.terms = append(pr.terms, shiftTerm{v: j, coef: coef})
			}
		}
		pr.termRow[i+1] = len(pr.terms)
		switch r.sense {
		case LE:
			pr.slackSgn[i] = 1
		case GE:
			pr.slackSgn[i] = -1
		default:
			pr.allSlack = false
			continue
		}
		pr.unitRow[slack] = i
		slack++
	}
	for k, ur := range pr.uppers {
		i := pr.m0 + k
		pr.sf[i*ncols+ur.col] = 1
		pr.slackSgn[i] = 1
		pr.unitRow[slack] = i
		slack++
	}

	// The columns that may seed phase 1's basis are those with exactly one
	// nonzero: every slack column, and each structural column whose block
	// column has one. That pattern is the program's, whatever the signs of
	// the right-hand sides, so phase 1 only checks that the entry
	// normalizes to +1.
	for j := range ncols {
		pr.unitRow[j] = -1
	}
	for i := 0; i < pr.m; i++ {
		for j, a := range pr.sf[i*ncols : (i+1)*ncols] {
			switch {
			case a == 0:
			case pr.unitRow[j] == -1:
				pr.unitRow[j] = i
			default:
				pr.unitRow[j] = -2 // a second nonzero
			}
		}
	}

	pr.c = make([]float64, pr.n)
	pr.cost = make([]float64, pr.total)
	pr.setCost(p.c)
	return pr
}

// setCost compiles the objective c into the standard-form cost, from a
// zeroed vector, skipping zero coefficients, each added or subtracted at
// its variable's columns, and keeps c for extract.
func (p *program) setCost(c []float64) {
	copy(p.c, c)
	clear(p.cost)
	for j, coef := range c {
		if coef == 0 {
			continue
		}
		m := p.maps[j]
		switch m.kind {
		case 0:
			p.cost[m.col] += coef
		case 1:
			p.cost[m.col] -= coef
		case 2:
			p.cost[m.col] += coef
			p.cost[m.col2] -= coef
		}
	}
}

// Fork returns a new Solver over the same compiled program with its own
// (lazily allocated) workspace and no warm-start state. Forks are how
// concurrent or determinism-sensitive callers share one compile: each
// fork's warm chain depends only on its own solve sequence.
func (s *Solver) Fork() *Solver { return &Solver{p: s.p} }

// ResetWarm discards the warm-start state so the next solve takes the cold
// two-phase path, exactly as on a freshly forked solver, while keeping
// every allocated buffer. Pooled workspaces call it between logical
// sessions: a reused solver's solve chain is then bitwise identical to a
// fresh fork's, because the cold path rebuilds the tableau from the
// compiled form. The solve-path stats keep accumulating across resets.
func (s *Solver) ResetWarm() {
	s.warm = false
	s.pivots = 0
}

// NumRows returns the number of original constraint rows (the length of
// the rhs parameter accepted by SolveRHS).
func (s *Solver) NumRows() int { return s.p.m0 }

// NumVars returns the number of original decision variables.
func (s *Solver) NumVars() int { return s.p.n }

// Solve resolves the compiled problem with its compiled right-hand sides
// and bounds. The returned Solution (and its X slice) is owned by the
// Solver and only valid until the next solve on it.
func (s *Solver) Solve() *Solution { return s.solve(nil) }

// SolveRHS resolves with new right-hand sides for the original constraint
// rows (len(rhs) must equal NumRows) and the compiled bounds. rhs is read,
// not retained. The returned Solution is owned by the Solver and only
// valid until the next solve on it.
func (s *Solver) SolveRHS(rhs []float64) *Solution {
	if len(rhs) != s.p.m0 {
		panic("lp: SolveRHS: rhs length mismatch")
	}
	return s.solve(rhs)
}

// SolveParams resolves with new right-hand sides and/or new variable
// bounds; nil keeps the compiled values. Bound changes must preserve each
// variable's boundedness class (which bounds are finite) — the compiled
// structure depends on it — otherwise ok is false and the caller must
// fall back to a fresh compile. A bound pair with lo > hi reports
// Infeasible directly.
func (s *Solver) SolveParams(rhs, lo, hi []float64) (sol *Solution, ok bool) {
	p := s.p
	if lo == nil && hi == nil {
		return s.solve(rhs), true
	}
	if lo == nil {
		lo = p.lower
	}
	if hi == nil {
		hi = p.upper
	}
	if len(lo) != p.n || len(hi) != p.n {
		panic("lp: SolveParams: bounds length mismatch")
	}
	for j := 0; j < p.n; j++ {
		if classOf(lo[j], hi[j]) != p.class[j] {
			return nil, false
		}
		if lo[j] > hi[j] {
			s.sol = Solution{Status: Infeasible}
			return &s.sol, true
		}
	}
	if s.lo == nil {
		s.lo = make([]float64, p.n)
		s.hi = make([]float64, p.n)
	}
	copy(s.lo, lo)
	copy(s.hi, hi)
	s.paramBounds = true
	sol = s.solve(rhs)
	s.paramBounds = false // revert to compiled bounds for later solves
	return sol, true
}

// bounds returns the active bound slices for this solve.
func (s *Solver) bounds() (lo, hi []float64) {
	if s.paramBounds {
		return s.lo, s.hi
	}
	return s.p.lower, s.p.upper
}

// prepare derives the per-solve shifts and the standard-form rhs b from
// the active parameters. Each row subtracts coef·shift over its compiled
// shift terms: the nonzero coefficients on non-split variables in variable
// order, which are the subtractions of the historical Problem.Solve
// construction in its order, so every b keeps its bits (the sign of a −0
// rhs included, which a skipped +0 or −0 product could flip).
func (s *Solver) prepare(rhs []float64) {
	p := s.p
	if s.shift == nil {
		s.shift = make([]float64, p.n)
		s.b = make([]float64, p.m)
		s.newb = make([]float64, p.m)
		s.y = make([]float64, p.total)
		s.x = make([]float64, p.n)
	}
	lo, hi := s.bounds()
	for j := 0; j < p.n; j++ {
		switch p.maps[j].kind {
		case 0:
			s.shift[j] = lo[j]
		case 1:
			s.shift[j] = hi[j]
		default:
			s.shift[j] = 0
		}
	}
	for i := 0; i < p.m0; i++ {
		b := p.rhs[i]
		if rhs != nil {
			b = rhs[i]
		}
		for _, st := range p.terms[p.termRow[i]:p.termRow[i+1]] {
			b -= st.coef * s.shift[st.v]
		}
		s.b[i] = b
	}
	for k, ur := range p.uppers {
		s.b[p.m0+k] = hi[ur.v] - lo[ur.v]
	}
}

// solve runs the warm path when possible and falls back to the cold
// two-phase simplex otherwise.
func (s *Solver) solve(rhs []float64) *Solution {
	p := s.p
	s.prepare(rhs)

	if p.m == 0 {
		// No constraints: the optimum is y = 0 unless some cost is
		// negative (unbounded below, since y ≥ 0 only).
		for _, c := range p.cost {
			if c < -eps {
				s.sol = Solution{Status: Unbounded}
				return &s.sol
			}
		}
		for i := range s.y {
			s.y[i] = 0
		}
		return s.extract()
	}

	if s.warm && p.allSlack && s.pivots < refactorEvery {
		p0 := s.pivots
		if st, ok := s.resolveWarm(); ok {
			s.stats.Warm++
			s.stats.WarmPivots += s.pivots - p0
			if s.pivots > p0 {
				s.stats.Repairs++
			}
			if st != Optimal {
				s.warm = false
				s.sol = Solution{Status: st}
				return &s.sol
			}
			return s.extract()
		}
	}

	s.stats.Cold++
	st := s.solveCold()
	if st != Optimal {
		s.warm = false
		s.sol = Solution{Status: st}
		return &s.sol
	}
	s.warm = true
	return s.extract()
}

// extract reads the standard-form solution out of the tableau (or the y
// buffer for the trivial no-row case), reconstructs the original
// variables, and fills the reusable Solution.
func (s *Solver) extract() *Solution {
	p := s.p
	if p.m > 0 {
		for i := range s.y {
			s.y[i] = 0
		}
		d := &s.d
		for i, j := range s.basis {
			if j < p.total {
				s.y[j] = d.t[i*d.stride+d.rhs]
			}
		}
	}
	obj := 0.0
	for j := 0; j < p.n; j++ {
		m := p.maps[j]
		switch m.kind {
		case 0:
			s.x[j] = s.shift[j] + s.y[m.col]
		case 1:
			s.x[j] = s.shift[j] - s.y[m.col]
		case 2:
			s.x[j] = s.y[m.col] - s.y[m.col2]
		}
		obj += p.c[j] * s.x[j]
	}
	s.sol = Solution{Status: Optimal, X: s.x, Objective: obj}
	return &s.sol
}

// resolveWarm attempts a warm resolve of the stored optimal basis with the
// current b. ok is false when the warm path cannot certify an answer and
// the caller must run the cold path.
func (s *Solver) resolveWarm() (Status, bool) {
	p, d := s.p, &s.d
	// New rhs column in the current basis: the slack block of the tableau
	// is B⁻¹·D·Σ for the row-sign normalization D and slack signs Σ, so
	// B⁻¹·D·b = T_slack·Σ·b — the normalization cancels.
	if cap(s.terms) < d.rhs {
		s.terms = make([]slackTerm, 0, d.rhs) // once: one-shot solves never get here
	}
	s.terms = slackTransform(s.newb, d, s.basis, p.ncols, p.slackSgn, s.b, s.terms, s.rank)
	infeasRows := 0
	for i := 0; i < p.m; i++ {
		d.t[i*d.stride+d.rhs] = s.newb[i]
		if s.newb[i] < -eps {
			infeasRows++
		}
	}
	if infeasRows > 0 {
		// The basis is primal-infeasible but still dual-feasible (the
		// reduced costs do not depend on b): repair with dual simplex —
		// unless the parameter jump invalidated a large fraction of the
		// rows. Dual repair needs roughly one pivot per infeasible row on
		// a dense warm tableau, while the cold solve's early pivots hit a
		// still-sparse one; past about a third of the rows the cold path
		// was cheaper (measured on the RMPC program with dense pivot
		// updates; trajectory-local resolves have 0–2 infeasible rows and
		// never take this exit). Sparse pivots changed both sides' costs,
		// but the threshold decides which path a solve takes, and with it
		// the pinned chain digests, the goldens and the oicbench work
		// records: it can only move together with re-recorded pins.
		if infeasRows > p.m/3 {
			return Optimal, false
		}
		if st, ok := s.dualSimplex(); !ok || st != Optimal {
			return st, ok
		}
	}
	// A basic artificial at a nonzero level would mean the "optimum"
	// violates its row; only the cold phase-1 can decide feasibility then.
	for i, j := range s.basis {
		if j >= p.total && d.t[i*d.stride+d.rhs] > 1e-7 {
			return Optimal, false
		}
	}
	return Optimal, true
}

// slackTerm is one nonbasic slack column of the warm rhs transform: its
// dictionary column, its slack index k, and sgn[k] and b[k].
type slackTerm struct {
	col, k int
	g, b   float64
}

// slackTransform writes dst[i] = Σ_k T[i][ncols+k]·sgn[k]·b[k] for the
// dictionary d of an all-slack program (row k's slack is column ncols+k),
// k ascending and only where b[k] ≠ 0. terms is scratch that append
// reuses and rank scratch of capacity at least len(dst); it returns
// terms, holding the nonbasic slack terms it summed.
//
// The dense sum's basic slack columns are unit vectors: the one basic in
// row i adds 1·sgn[k]·b[k] at its k, and every other adds a ±0 product,
// which leaves an accumulator started at +0.0 unchanged (DESIGN.md §5.4).
// So each row sums only the nonbasic slack columns and its own basic
// slack, in ascending k: the nonbasic terms as s += t * g * bk, the own
// term as s += g * bk, the same bits since 1·g is exact. Four rows share
// each pass over the terms, each in its own accumulator, so the four
// independent add chains overlap in the pipeline; a scalar loop takes the
// last len(dst) mod 4 rows. Never reassociate these sums, fold sgn into b,
// or call math.FMA: every warm κ solve, and with it the golden traces and
// pinned work digests, depends on these bits.
func slackTransform(dst []float64, d *tab, basis []int, ncols int, sgn, b []float64, terms []slackTerm, rank []int) []slackTerm {
	m := len(dst)
	terms = terms[:0]
	for _, c := range d.cols { // ascending original index: structural, then slack k ascending
		k := d.idx[c] - ncols
		if k < 0 {
			continue
		}
		if bk := b[k]; bk != 0 {
			terms = append(terms, slackTerm{col: c, k: k, g: sgn[k], b: bk})
		}
	}
	// rank[k] is the number of terms below slack k: where row k's slack,
	// basic in some row, adds its own term to that row's sum.
	rank = rank[:m]
	t := 0
	for k := range rank {
		for t < len(terms) && terms[t].k < k {
			t++
		}
		rank[k] = t
	}
	own := func(i int) (at int, g, bk float64) {
		if k := basis[i] - ncols; k >= 0 && k < m && b[k] != 0 {
			return rank[k], sgn[k], b[k]
		}
		return -1, 0, 0 // a structural or artificial basic column, or b[k] = 0
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := d.t[i*d.stride : (i+1)*d.stride]
		r1 := d.t[(i+1)*d.stride : (i+2)*d.stride]
		r2 := d.t[(i+2)*d.stride : (i+3)*d.stride]
		r3 := d.t[(i+3)*d.stride : (i+4)*d.stride]
		r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
		o0, g0, b0 := own(i)
		o1, g1, b1 := own(i + 1)
		o2, g2, b2 := own(i + 2)
		o3, g3, b3 := own(i + 3)
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for t := range terms {
			if t == o0 {
				s0 += g0 * b0
			}
			if t == o1 {
				s1 += g1 * b1
			}
			if t == o2 {
				s2 += g2 * b2
			}
			if t == o3 {
				s3 += g3 * b3
			}
			tm := &terms[t]
			c, g, bk := tm.col, tm.g, tm.b
			s0 += r0[c] * g * bk
			s1 += r1[c] * g * bk
			s2 += r2[c] * g * bk
			s3 += r3[c] * g * bk
		}
		q := len(terms)
		if o0 == q {
			s0 += g0 * b0
		}
		if o1 == q {
			s1 += g1 * b1
		}
		if o2 == q {
			s2 += g2 * b2
		}
		if o3 == q {
			s3 += g3 * b3
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m; i++ {
		row := d.t[i*d.stride : (i+1)*d.stride]
		o, og, ob := own(i)
		s := 0.0
		for t := range terms {
			if t == o {
				s += og * ob
			}
			tm := &terms[t]
			s += row[tm.col] * tm.g * tm.b
		}
		if o == len(terms) {
			s += og * ob
		}
		dst[i] = s
	}
	return terms
}

// dualSimplex restores primal feasibility of a dual-feasible basis after a
// rhs change. Entering columns are restricted to the non-artificial range.
// ok is false when the iteration cap is hit (cold fallback); an Infeasible
// status is trusted only after the cold path confirms it, so it is also
// reported with ok false.
func (s *Solver) dualSimplex() (Status, bool) {
	p, d := s.p, &s.d
	for iter := 0; iter < iterCap; iter++ {
		// Leaving row: most negative rhs.
		leave := -1
		worst := -eps
		for i := 0; i < p.m; i++ {
			if v := d.t[i*d.stride+d.rhs]; v < worst {
				worst = v
				leave = i
			}
		}
		if leave == -1 {
			return Optimal, true
		}
		// Entering column: dual ratio test over negative entries of the
		// leaving row. The walk is in ascending original index, so a ratio
		// within eps of the best never replaces it: ties go to the smallest
		// index. The dictionary holds no artificial column to re-enter.
		lr := d.t[leave*d.stride : leave*d.stride+d.rhs]
		enter := -1
		best := math.Inf(1)
		for _, c := range d.cols {
			a := lr[c]
			if a >= -eps {
				continue
			}
			if r := d.z[c] / -a; r < best-eps {
				best = r
				enter = c
			}
		}
		if enter == -1 {
			// Dual unbounded ⇒ primal infeasible; let the cold path
			// confirm rather than trusting a drifted tableau.
			return Infeasible, false
		}
		s.pivot(d, leave, enter)
	}
	return IterLimit, false
}

// tab is a simplex tableau stored as a dictionary: flat row-major rows of
// the given stride holding the nonbasic columns, slot c holding original
// column idx[c], then the rhs in column rhs, and the reduced-cost row z
// beside them. No basic column is stored: each is a unit vector. cols
// lists the slots pricing may enter, those whose original index is below
// priced, in ascending original index; nz is the pivot's gather list.
type tab struct {
	t, z   []float64
	idx    []int
	cols   []int
	nz     []int
	stride int
	rhs    int
	priced int
}

// reshape sizes d for m rows of nn stored columns and the rhs, reusing its
// buffers when they are large enough. Otherwise the cells and the reduced
// costs take one allocation, and the column indices, the priced list and
// the gather list another: set synthesis solves thousands of one-shot
// programs.
func (d *tab) reshape(m, nn int) {
	w := nn + 1
	if cap(d.t) < m*w || cap(d.z) < w {
		buf := make([]float64, (m+1)*w)
		d.t, d.z = buf[:m*w:m*w], buf[m*w:]
	}
	if cap(d.idx) < nn || cap(d.cols) < nn || cap(d.nz) < w {
		ints := make([]int, 3*nn+1)
		d.idx, d.cols, d.nz = ints[:nn:nn], ints[nn:2*nn:2*nn], ints[2*nn:]
	}
	d.t, d.z, d.idx, d.cols, d.nz = d.t[:m*w], d.z[:w], d.idx[:nn], d.cols[:nn], d.nz[:w]
	d.stride, d.rhs = w, nn
}

// coldPool shares phase 1's dictionaries across every Solver in the
// process: a solver holds one only while phase 1 runs, so warm workspaces,
// however many there are, keep only their own dictionary, and one-shot
// solves reuse the scratch of the previous one.
var coldPool = sync.Pool{New: func() any { return new(tab) }}

// solveCold runs the two-phase simplex from scratch on the prepared b,
// replicating the historical from-scratch solve arithmetic. Phase 1 runs
// on a pooled dictionary whose live slots are then compacted into the
// solver's, where phase 2 runs. On Optimal it leaves the dictionary,
// basis, and phase-2 reduced costs in place as the warm-start state.
func (s *Solver) solveCold() Status {
	if st := s.phase1(); st != Optimal {
		return st
	}
	return s.phase2()
}

// phase2 minimizes the compiled cost from the dictionary and basis phase 1
// left in the solver.
func (s *Solver) phase2() Status {
	p := s.p
	// Rebuild reduced costs for the real objective. A basic column's
	// reduced cost is its cost until its own row clears it, as every other
	// row holds a zero there.
	d := &s.d
	for c, j := range d.idx {
		d.z[c] = p.cost[j]
	}
	d.z[d.rhs] = 0
	for i := 0; i < p.m; i++ {
		j := s.basis[i]
		if j >= p.total {
			continue
		}
		cj := p.cost[j]
		if cj == 0 {
			continue
		}
		ti := d.t[i*d.stride : (i+1)*d.stride]
		for c := range ti {
			d.z[c] -= cj * ti[c]
		}
	}
	if st := s.iterate(d); st != Optimal {
		return st
	}
	s.stats.ColdPivots += s.pivots
	s.pivots = 0 // fresh factorization: reset the drift guard
	return Optimal
}

// phase1 seeds the basis (artificials where no unit column fits), builds
// the dictionary of every other column in one drawn from coldPool,
// normalized to b ≥ 0, minimizes the sum of the artificials, drives the
// remaining ones out where possible, and compacts the live slots and the
// rhs into the solver's dictionary. Its status is Optimal when phase 2
// may start. Phase 1 never reads the objective: its status, and the
// dictionary and basis it leaves, depend only on the rows, b and the
// bounds (Objectives).
func (s *Solver) phase1() Status {
	p := s.p
	if s.basis == nil {
		ints := make([]int, 2*p.m) // one allocation for basis and rank
		s.basis, s.rank = ints[:p.m:p.m], ints[p.m:]
	}
	s.pivots = 0
	s.warm = false
	sc := coldPool.Get().(*tab)
	defer coldPool.Put(sc)

	// A column whose only nonzero is +1 once its row is negated for b < 0
	// can seed that row's basis; later (slack) columns first. Every other
	// row takes an artificial, numbered total, total+1, … in row order.
	for i := range s.basis {
		s.basis[i] = -1
	}
	for j := p.total - 1; j >= 0; j-- {
		i := p.unitRow[j]
		if i < 0 || s.basis[i] != -1 {
			continue
		}
		a := p.slackSgn[i]
		if j < p.ncols {
			a = p.sf[i*p.ncols+j]
		}
		if s.b[i] < 0 {
			a = -a
		}
		if a == 1 {
			s.basis[i] = j
		}
	}
	art := p.total
	for i, j := range s.basis {
		if j < 0 {
			s.basis[i] = art
			art++
		}
	}

	// The dictionary stores every column no row seeded, in ascending index,
	// then the rhs. An artificial that leaves the basis takes the entering
	// column's slot, and phase 1 prices it there as the full tableau priced
	// its column, so priced spans the artificials.
	sc.reshape(p.m, art-p.m)
	sc.priced = art
	n, ns := 0, 0 // the stored structural columns lead: slots [0, ns)
	for j := 0; j < p.total; j++ {
		if i := p.unitRow[j]; i < 0 || s.basis[i] != j {
			sc.idx[n], sc.cols[n] = j, n
			n++
			if j < p.ncols {
				ns = n
			}
		}
	}
	// Each row's structural cells come from sf, negated when b < 0; its
	// stored slack slots hold the zero a read of ±e_k gives there, −0 in a
	// negated row; then each stored slack column's one nonzero is written
	// at its row. These are the cells a full-width [S | Σ] read writes,
	// −0s included, with no per-cell branch.
	for i := 0; i < p.m; i++ {
		src := p.sf[i*p.ncols : (i+1)*p.ncols]
		ti := sc.t[i*sc.stride : (i+1)*sc.stride]
		b, zero := s.b[i], 0.0
		if b < 0 {
			b, zero = -b, math.Copysign(0, -1)
			for c, j := range sc.idx[:ns] {
				ti[c] = -src[j]
			}
		} else {
			for c, j := range sc.idx[:ns] {
				ti[c] = src[j]
			}
		}
		for c := ns; c < n; c++ {
			ti[c] = zero
		}
		ti[sc.rhs] = b
	}
	for c := ns; c < n; c++ {
		i := p.unitRow[sc.idx[c]]
		a := p.slackSgn[i]
		if s.b[i] < 0 {
			a = -a
		}
		sc.t[i*sc.stride+c] = a
	}

	// Minimize the sum of artificials (skipped when none exist).
	if art > p.total {
		z := sc.z
		for c := range z {
			z[c] = 0
		}
		for i, j := range s.basis {
			if j < p.total {
				continue
			}
			ti := sc.t[i*sc.stride : (i+1)*sc.stride]
			for c := range z {
				z[c] -= ti[c]
			}
		}
		if st := s.iterate(sc); st != Optimal {
			return st
		}
		if -z[sc.rhs] > 1e-7 {
			return Infeasible
		}
		// Drive remaining artificials out of the basis where possible, on
		// the first live column in ascending index; a row with no pivot is
		// redundant and its artificial stays basic at zero, excluded from
		// phase-2 pricing.
		for i := 0; i < p.m; i++ {
			if s.basis[i] < p.total {
				continue
			}
			ti := sc.t[i*sc.stride : (i+1)*sc.stride]
			for _, c := range sc.cols {
				if sc.idx[c] >= p.total {
					break
				}
				if math.Abs(ti[c]) > 1e-7 {
					s.pivot(sc, i, c)
					break
				}
			}
		}
	}

	// Compact: the live slots lead sc.cols. Nothing reads an artificial
	// again. A row whose artificial stayed basic leaves one more live
	// column nonbasic.
	live := sc.cols
	for k, c := range live {
		if sc.idx[c] >= p.total {
			live = live[:k]
			break
		}
	}
	d := &s.d
	d.reshape(p.m, len(live))
	d.priced = p.total
	for k, c := range live {
		d.idx[k], d.cols[k] = sc.idx[c], k
	}
	for i := 0; i < p.m; i++ {
		ti := sc.t[i*sc.stride : (i+1)*sc.stride]
		di := d.t[i*d.stride : (i+1)*d.stride]
		for k, c := range live {
			di[k] = ti[c]
		}
		di[d.rhs] = ti[sc.rhs]
	}
	return Optimal
}

// iterate runs primal simplex pivots on v, pricing its cols (phase 1:
// every stored column, departed artificials included; phase 2: the
// nonbasic structural and slack columns), until optimality,
// unboundedness, or the iteration cap, replicating the historical pricing
// exactly (Dantzig, then Bland after blandTrip pivots; ratio ties toward
// the smallest basis index). cols runs in ascending original index, so
// Dantzig's first minimum and Bland's first negative are the historical
// ones.
func (s *Solver) iterate(v *tab) Status {
	p := s.p
	for iter := 0; iter < iterCap; iter++ {
		bland := iter > blandTrip
		enter := -1
		best := -eps
		for _, j := range v.cols {
			if zj := v.z[j]; zj < best {
				if bland {
					enter = j
					break
				}
				best = zj
				enter = j
			}
		}
		if enter == -1 {
			return Optimal
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < p.m; i++ {
			ti := v.t[i*v.stride:]
			if ti[enter] > eps {
				ratio := ti[v.rhs] / ti[enter]
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave == -1 || s.basis[i] < s.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return Unbounded
		}
		s.pivot(v, leave, enter)
	}
	return IterLimit
}

// gatherBelow picks the pivot's row update. A pivot row whose gathered
// nonzeros, the rhs included, fill fewer than 1/gatherBelow of its cells
// is applied over that list; any other runs dense, four cells per pass.
// Both kernels stay because each wins where the other loses: phase 1's
// set-synthesis rows are mostly zero, and a dense-only pivot read 99–115
// ms per BenchmarkEngineLoad against 81–88 ms, while the warm ACC RMPC
// rows are mostly nonzero, and gathering every row read a median 34 µs
// per BenchmarkLPSolve/repair resolve against 30 µs (EXPERIMENTS.md, "One
// tableau in internal/lp").
const gatherBelow = 2

// pivot performs a Gauss-Jordan pivot of the dictionary d on row r and
// stored column c, updating its reduced-cost row alongside. Column c's
// slot passes to the leaving variable, whose column is the unit vector
// e_r before the pivot: the slot is set so first, and the update then
// turns it into the leaving variable's column, entry for entry the one a
// full tableau computes (its ±0 entries aside, as below).
//
// Scaling the pivot row also gathers its nonzero columns, in ascending
// order, into d.nz, with the rhs column always last, and the update runs
// over that list or dense (gatherBelow). A gathered update skips the
// entries where the pivot row holds a ±0, which a dense one turns into
// dst − f·(±0): for a finite f only the sign of a zero can differ, and a
// non-finite f takes the dense update in either case, so Inf and NaN
// spread as a dense pivot spreads them (DESIGN.md §5.4).
func (s *Solver) pivot(d *tab, r, c int) {
	p := s.p
	w := d.rhs + 1
	pr := d.t[r*d.stride : r*d.stride+w]
	inv := 1 / pr[c]
	pr[c] = 1
	nz := d.nz[:w]
	k := 0
	for j := range pr[:d.rhs] {
		pr[j] *= inv
		nz[k] = j // stored always, kept only if nonzero: no branch to mispredict
		if pr[j] != 0 {
			k++
		}
	}
	pr[d.rhs] *= inv
	nz[k] = d.rhs
	if nz = nz[:k+1]; gatherBelow*len(nz) >= w {
		nz = nil
	}
	for i := 0; i < p.m; i++ {
		if i == r {
			continue
		}
		ti := d.t[i*d.stride : i*d.stride+w]
		f := ti[c]
		if f == 0 {
			continue
		}
		ti[c] = 0
		if dense(nz, f) {
			subScaled(ti, pr, f)
		} else {
			subGathered(ti, pr, nz, f)
		}
	}
	if f := d.z[c]; f != 0 {
		d.z[c] = 0
		if dense(nz, f) {
			subScaled(d.z[:w], pr, f)
		} else {
			subGathered(d.z[:w], pr, nz, f)
		}
	}
	d.idx[c], s.basis[r] = s.basis[r], d.idx[c]
	d.cols = reslot(d.cols, d.idx, c, d.priced)
	s.pivots++
}

// reslot moves dictionary column c, which now holds original column
// idx[c], to its place in the ascending cols list, or drops it when that
// index is not priced (an artificial after phase 1): nothing prices it
// again.
func reslot(cols, idx []int, c, priced int) []int {
	at := 0
	for cols[at] != c {
		at++
	}
	cols = append(cols[:at], cols[at+1:]...)
	j := idx[c]
	if j >= priced {
		return cols
	}
	at = 0
	for at < len(cols) && idx[cols[at]] < j {
		at++
	}
	cols = cols[:len(cols)+1]
	copy(cols[at+1:], cols[at:])
	cols[at] = c
	return cols
}

// dense reports whether a row update with multiplier f runs over every
// cell: when the pivot row gathered no list (nz is nil), or when f is ±Inf
// or NaN (f − f is 0 exactly when f is finite).
func dense(nz []int, f float64) bool { return nz == nil || f-f != 0 }

// subGathered computes dst[j] −= f·src[j] for every j in nz.
func subGathered(dst, src []float64, nz []int, f float64) {
	src = src[:len(dst)]
	for _, j := range nz {
		dst[j] -= f * src[j]
	}
}

// subScaled computes dst[j] −= f·src[j] for every j, four entries per
// pass. len(dst) must equal len(src).
func subScaled(dst, src []float64, f float64) {
	n := len(src)
	dst = dst[:n]
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
