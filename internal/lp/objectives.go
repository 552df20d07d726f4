package lp

import "fmt"

// Objectives answers several objectives over one program with its
// compiled right-hand sides and bounds: set synthesis asks one polytope's
// feasibility LP for the support along many directions. Phase 1 never
// reads the objective — its seeding, fill, artificial costs, pivots,
// drive-out and compaction depend only on the rows, b and the bounds — so
// NewObjectives compiles the program and runs phase 1 once, and keeps the
// status, dictionary and basis it left. Each Solve compiles its cost as
// NewSolver does and runs phase 2 from a fresh copy of them, which is
// exactly what a fresh solver does for that objective: every answer has
// the status and every bit of X and Objective that
// NewSolver(p with that objective).Solve() returns (DESIGN.md §5.3).
//
// An Objectives owns its compiled program, whose cost each Solve
// rewrites, and is not safe for concurrent use.
type Objectives struct {
	s     Solver // over a program no Solver shares
	st    Status // phase 1's
	kept  tab    // the dictionary phase 1 left
	basis []int  // and its basis
}

// NewObjectives compiles p and runs its phase 1. p's objective is not
// read; later mutations of p are not seen.
func NewObjectives(p *Problem) *Objectives {
	o := &Objectives{s: Solver{p: compile(p)}}
	s := &o.s
	s.prepare(nil)
	if s.p.m == 0 {
		return o
	}
	if o.st = s.phase1(); o.st == Optimal {
		o.kept, s.d = s.d, tab{}
		o.basis = append([]int(nil), s.basis...)
	}
	return o
}

// Solve minimizes c·x (len(c) must equal p.NumVars()). c is read, not
// retained. The returned Solution is owned by the Objectives and only
// valid until the next Solve.
func (o *Objectives) Solve(c []float64) *Solution {
	s := &o.s
	p := s.p
	if len(c) != p.n {
		panic(fmt.Sprintf("lp: Objectives.Solve: got %d coefficients, want %d", len(c), p.n))
	}
	p.setCost(c)
	if p.m == 0 {
		return s.solve(nil)
	}
	if o.st != Optimal {
		s.sol = Solution{Status: o.st}
		return &s.sol
	}
	d, k := &s.d, &o.kept
	d.reshape(p.m, len(k.idx))
	copy(d.t, k.t)
	copy(d.idx, k.idx)
	copy(d.cols, k.cols)
	d.priced = k.priced
	copy(s.basis, o.basis)
	if st := s.phase2(); st != Optimal {
		s.sol = Solution{Status: st}
		return &s.sol
	}
	return s.extract()
}
