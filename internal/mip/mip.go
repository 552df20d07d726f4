// Package mip implements a small mixed-integer linear programming solver
// via best-first branch and bound over LP relaxations from package lp.
//
// It exists to solve the paper's model-based skipping problem (Eq. 6): a
// horizon-H plan over binary skip decisions z(k) with big-M linearized
// actuation u(k) = z(k)·κ(x(k)). Those programs have tens of binaries at
// most, well within reach of straightforward branch and bound.
package mip

import (
	"container/heap"
	"fmt"
	"math"

	"oic/internal/lp"
)

// Status reports the outcome of a MIP solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota
	Infeasible        // no integer-feasible point exists
	NodeLimit         // search truncated; Solution may hold an incumbent
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Problem is a linear program in which a subset of the variables is
// restricted to integer values.
type Problem struct {
	base    *lp.Problem
	integer []bool
}

// Solution is the result of a MIP solve. X and Objective are valid when
// Status is Optimal, or when Status is NodeLimit and HasIncumbent is true.
type Solution struct {
	Status       Status
	HasIncumbent bool
	X            []float64
	Objective    float64
	Nodes        int // number of branch-and-bound nodes explored
}

// NewProblem returns a MIP with n continuous free variables.
func NewProblem(n int) *Problem {
	return &Problem{base: lp.NewProblem(n), integer: make([]bool, n)}
}

// SetObjective sets the minimized cost vector.
func (p *Problem) SetObjective(c []float64) { p.base.SetObjective(c) }

// AddConstraint appends a linear constraint row.
func (p *Problem) AddConstraint(coeffs []float64, sense lp.Sense, rhs float64) {
	p.base.AddConstraint(coeffs, sense, rhs)
}

// SetBounds restricts variable i to [lo, hi].
func (p *Problem) SetBounds(i int, lo, hi float64) { p.base.SetBounds(i, lo, hi) }

// SetInteger marks variable i as integral.
func (p *Problem) SetInteger(i int) { p.integer[i] = true }

// SetBinary marks variable i as binary (integral in [0, 1]).
func (p *Problem) SetBinary(i int) {
	p.integer[i] = true
	p.base.SetBounds(i, 0, 1)
}

const intTol = 1e-6

type node struct {
	bound float64 // LP relaxation objective (lower bound)
	// extra bounds applied on the path from the root
	lo, hi map[int]float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Options tunes the branch-and-bound search.
type Options struct {
	MaxNodes int     // 0 means the default (50000)
	Gap      float64 // absolute optimality gap for pruning (default 1e-9)
}

// Solve runs best-first branch and bound and returns the best integer
// solution. The problem is not modified.
func (p *Problem) Solve(opts Options) *Solution {
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 50000
	}
	gap := opts.Gap
	if gap == 0 {
		gap = 1e-9
	}

	// Every node shares one compiled solver: branching bounds are applied
	// as parametric variable bounds (intersected with the base bounds, so
	// they always tighten), which warm-starts each node LP from the last
	// solved basis instead of recompiling the clone from scratch.
	nvars := p.base.NumVars()
	solver := lp.NewSolver(p.base)
	baseLo := make([]float64, nvars)
	baseHi := make([]float64, nvars)
	for i := 0; i < nvars; i++ {
		baseLo[i], baseHi[i] = p.base.Bounds(i)
	}
	lo := make([]float64, nvars)
	hi := make([]float64, nvars)
	solveNode := func(n *node) *lp.Solution {
		copy(lo, baseLo)
		copy(hi, baseHi)
		for i, v := range n.lo {
			if v > lo[i] {
				lo[i] = v
			}
		}
		for i, v := range n.hi {
			if v < hi[i] {
				hi[i] = v
			}
		}
		if sol, ok := solver.SolveParams(nil, lo, hi); ok {
			// The solver owns sol.X; nodes outlive the next solve.
			out := &lp.Solution{Status: sol.Status, Objective: sol.Objective}
			if sol.Status == lp.Optimal {
				out.X = append([]float64(nil), sol.X...)
			}
			return out
		}
		// Branching changed a variable's boundedness class (a previously
		// unbounded integer picked up its first finite bound): fall back
		// to the historical clone-plus-rows path for this node.
		q := p.base.Clone()
		for i, v := range n.lo {
			row := make([]float64, nvars)
			row[i] = 1
			q.AddConstraint(row, lp.GE, v)
		}
		for i, v := range n.hi {
			row := make([]float64, nvars)
			row[i] = 1
			q.AddConstraint(row, lp.LE, v)
		}
		return q.Solve()
	}

	root := &node{lo: map[int]float64{}, hi: map[int]float64{}}
	rootSol := solveNode(root)
	if rootSol.Status == lp.Infeasible {
		return &Solution{Status: Infeasible, Nodes: 1}
	}
	if rootSol.Status != lp.Optimal {
		// An unbounded relaxation with binaries can still be integer
		// unbounded; we report it as infeasible-for-our-purposes since the
		// callers in this repository always pose bounded problems.
		return &Solution{Status: Infeasible, Nodes: 1}
	}
	root.bound = rootSol.Objective

	h := &nodeHeap{root}
	heap.Init(h)
	sols := map[*node]*lp.Solution{root: rootSol}

	best := math.Inf(1)
	var bestX []float64
	nodes := 0

	for h.Len() > 0 {
		if nodes >= maxNodes {
			st := &Solution{Status: NodeLimit, Nodes: nodes}
			if bestX != nil {
				st.HasIncumbent = true
				st.X = bestX
				st.Objective = best
			}
			return st
		}
		n := heap.Pop(h).(*node)
		nodes++
		if n.bound >= best-gap {
			continue // pruned by bound
		}
		sol := sols[n]
		delete(sols, n)
		if sol == nil {
			sol = solveNode(n)
			if sol.Status != lp.Optimal || sol.Objective >= best-gap {
				continue
			}
		}

		// Find the most fractional integer variable.
		branch := -1
		worst := intTol
		for i, isInt := range p.integer {
			if !isInt {
				continue
			}
			f := math.Abs(sol.X[i] - math.Round(sol.X[i]))
			if f > worst {
				worst = f
				branch = i
			}
		}
		if branch == -1 {
			// Integer feasible.
			if sol.Objective < best {
				best = sol.Objective
				bestX = roundIntegers(sol.X, p.integer)
			}
			continue
		}

		val := sol.X[branch]
		down := &node{lo: cloneMap(n.lo), hi: cloneMap(n.hi)}
		down.hi[branch] = math.Floor(val)
		up := &node{lo: cloneMap(n.lo), hi: cloneMap(n.hi)}
		up.lo[branch] = math.Ceil(val)
		for _, child := range []*node{down, up} {
			cs := solveNode(child)
			if cs.Status != lp.Optimal {
				continue
			}
			if cs.Objective >= best-gap {
				continue
			}
			child.bound = cs.Objective
			sols[child] = cs
			heap.Push(h, child)
		}
	}

	if bestX == nil {
		return &Solution{Status: Infeasible, Nodes: nodes}
	}
	return &Solution{Status: Optimal, HasIncumbent: true, X: bestX, Objective: best, Nodes: nodes}
}

func cloneMap(m map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func roundIntegers(x []float64, integer []bool) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for i, isInt := range integer {
		if isInt {
			out[i] = math.Round(out[i])
		}
	}
	return out
}
