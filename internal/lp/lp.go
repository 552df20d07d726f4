// Package lp implements a two-phase tableau simplex solver for linear
// programs. It is the optimization kernel used by the polytope algebra
// (support functions, emptiness, redundancy), the robust MPC controller
// (1-norm objectives become LPs), and the branch-and-bound MIP solver.
//
// Problems are stated over free or bounded variables with ≤ / ≥ / =
// constraint rows and are minimized. The solver converts to equality
// standard form internally, runs phase 1 with artificial variables, and
// prices with Dantzig's rule, falling back to Bland's rule to guarantee
// termination on degenerate instances.
//
// The solver targets the small programs arising in this repository (tens
// of variables, at most a few hundred rows). It compiles only the
// structural block of the constraint matrix (a slack column is a signed
// unit vector), keeps every tableau, phase 1's included, as a dictionary
// of its nonbasic columns only, every basic column being a unit vector,
// and its one pivot and warm rhs transform keep every output bit of the
// full dense tableau's (DESIGN.md §5.3, §5.4). Objectives answers many
// objectives over one program from one phase 1. The solver favors
// clarity and numerical robustness over large-scale performance.
package lp

import (
	"fmt"
	"math"
)

// Sense is the direction of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // ≤
	GE              // ≥
	EQ              // =
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

type row struct {
	coeffs []float64
	sense  Sense
	rhs    float64
}

// Problem is a linear program: minimize c·x subject to constraint rows and
// per-variable bounds. Variables are free (−∞, +∞) by default.
type Problem struct {
	n     int
	c     []float64
	rows  []row
	lower []float64
	upper []float64
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	X         []float64 // values of the original variables (valid when Optimal)
	Objective float64   // c·X (valid when Optimal)
}

// NewProblem returns a problem with n free variables and a zero objective.
func NewProblem(n int) *Problem {
	p := &Problem{n: n, c: make([]float64, n), lower: make([]float64, n), upper: make([]float64, n)}
	for i := 0; i < n; i++ {
		p.lower[i] = math.Inf(-1)
		p.upper[i] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.n }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.rows) }

// SetObjective sets the cost vector c (minimized). len(c) must equal NumVars.
func (p *Problem) SetObjective(c []float64) {
	if len(c) != p.n {
		panic(fmt.Sprintf("lp: SetObjective: got %d coefficients, want %d", len(c), p.n))
	}
	copy(p.c, c)
}

// Bounds returns variable i's current [lo, hi] bounds.
func (p *Problem) Bounds(i int) (lo, hi float64) { return p.lower[i], p.upper[i] }

// SetBounds restricts variable i to [lo, hi]. Use ±Inf for one-sided bounds.
func (p *Problem) SetBounds(i int, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("lp: SetBounds(%d): lower %g > upper %g", i, lo, hi))
	}
	p.lower[i] = lo
	p.upper[i] = hi
}

// AddConstraint appends the row coeffs·x (sense) rhs. The coefficient slice
// is copied.
func (p *Problem) AddConstraint(coeffs []float64, sense Sense, rhs float64) {
	if len(coeffs) != p.n {
		panic(fmt.Sprintf("lp: AddConstraint: got %d coefficients, want %d", len(coeffs), p.n))
	}
	cc := make([]float64, p.n)
	copy(cc, coeffs)
	p.rows = append(p.rows, row{coeffs: cc, sense: sense, rhs: rhs})
}

// Clone returns an independent copy of the problem, useful for
// branch-and-bound which adds bounds per node.
func (p *Problem) Clone() *Problem {
	q := NewProblem(p.n)
	copy(q.c, p.c)
	copy(q.lower, p.lower)
	copy(q.upper, p.upper)
	q.rows = make([]row, len(p.rows))
	for i, r := range p.rows {
		cc := make([]float64, len(r.coeffs))
		copy(cc, r.coeffs)
		q.rows[i] = row{coeffs: cc, sense: r.sense, rhs: r.rhs}
	}
	return q
}

const (
	eps       = 1e-9
	iterCap   = 20000
	blandTrip = 2000 // switch to Bland's rule after this many Dantzig pivots
)

// varMap describes how original variable j is reconstructed from the
// nonnegative standard-form variables.
type varMap struct {
	kind  int // 0: shifted (x = shift + y), 1: mirrored (x = shift − y), 2: split (x = y1 − y2)
	col   int
	col2  int
	shift float64
}

// Solve minimizes the objective and returns the solution. The problem is
// not modified and may be solved repeatedly (e.g. with different bounds via
// Clone).
//
// Solve is a thin wrapper over a one-shot compiled Solver; callers that
// resolve the same structure with changing right-hand sides or bounds
// (MPC steps, branch-and-bound nodes) should compile once with NewSolver
// and reuse it, and callers that ask the same program several objectives
// (support queries) should use NewObjectives.
func (p *Problem) Solve() *Solution {
	sol := NewSolver(p).Solve()
	out := &Solution{Status: sol.Status, Objective: sol.Objective}
	if sol.Status == Optimal {
		out.X = append([]float64(nil), sol.X...)
	}
	return out
}
