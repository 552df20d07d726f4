package lp

import (
	"math"
	"math/rand"
	"testing"

	"oic/internal/mat"
)

func TestSimpleMinimization(t *testing.T) {
	// min -x - 2y  s.t. x + y <= 4, x <= 2, x,y >= 0. Optimum at (0,4): -8.
	p := NewProblem(2)
	p.SetObjective([]float64{-1, -2})
	p.SetBounds(0, 0, math.Inf(1))
	p.SetBounds(1, 0, math.Inf(1))
	p.AddConstraint([]float64{1, 1}, LE, 4)
	p.AddConstraint([]float64{1, 0}, LE, 2)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-8)) > 1e-8 {
		t.Errorf("objective = %v, want -8 (x=%v)", sol.Objective, sol.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y  s.t. x + 2y = 3, x,y >= 0. Optimum at (0, 1.5): 1.5.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.SetBounds(0, 0, math.Inf(1))
	p.SetBounds(1, 0, math.Inf(1))
	p.AddConstraint([]float64{1, 2}, EQ, 3)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-1.5) > 1e-8 {
		t.Errorf("objective = %v, want 1.5", sol.Objective)
	}
}

func TestGEConstraint(t *testing.T) {
	// min 2x + 3y  s.t. x + y >= 10, x >= 0, y >= 0. Optimum (10,0): 20.
	p := NewProblem(2)
	p.SetObjective([]float64{2, 3})
	p.SetBounds(0, 0, math.Inf(1))
	p.SetBounds(1, 0, math.Inf(1))
	p.AddConstraint([]float64{1, 1}, GE, 10)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-20) > 1e-8 {
		t.Errorf("objective = %v, want 20", sol.Objective)
	}
}

func TestFreeVariables(t *testing.T) {
	// min x subject to x >= -5 expressed as a row (variable itself free).
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]float64{1}, GE, -5)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.X[0]-(-5)) > 1e-8 {
		t.Errorf("x = %v, want -5", sol.X[0])
	}
}

func TestNegativeBounds(t *testing.T) {
	// min x + y over the box [-3,-1] × [-2,5].
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.SetBounds(0, -3, -1)
	p.SetBounds(1, -2, 5)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-5)) > 1e-8 {
		t.Errorf("objective = %v, want -5 (x=%v)", sol.Objective, sol.X)
	}
}

func TestUpperBoundOnlyVariable(t *testing.T) {
	// max x (min -x) with x <= 7 and a row x >= 0.
	p := NewProblem(1)
	p.SetObjective([]float64{-1})
	p.SetBounds(0, math.Inf(-1), 7)
	p.AddConstraint([]float64{1}, GE, 0)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.X[0]-7) > 1e-8 {
		t.Errorf("x = %v, want 7", sol.X[0])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]float64{1}, GE, 5)
	p.AddConstraint([]float64{1}, LE, 4)
	if sol := p.Solve(); sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1}) // minimize a free variable
	p.AddConstraint([]float64{1}, LE, 10)
	if sol := p.Solve(); sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestDegenerate(t *testing.T) {
	// Klee-Minty-flavoured degenerate problem; checks anti-cycling.
	p := NewProblem(3)
	p.SetObjective([]float64{-100, -10, -1})
	for i := 0; i < 3; i++ {
		p.SetBounds(i, 0, math.Inf(1))
	}
	p.AddConstraint([]float64{1, 0, 0}, LE, 1)
	p.AddConstraint([]float64{20, 1, 0}, LE, 100)
	p.AddConstraint([]float64{200, 20, 1}, LE, 10000)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-10000)) > 1e-6 {
		t.Errorf("objective = %v, want -10000", sol.Objective)
	}
}

func TestZeroObjective(t *testing.T) {
	// Pure feasibility problem.
	p := NewProblem(2)
	p.AddConstraint([]float64{1, 1}, EQ, 2)
	p.AddConstraint([]float64{1, -1}, EQ, 0)
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.X[0]-1) > 1e-8 || math.Abs(sol.X[1]-1) > 1e-8 {
		t.Errorf("x = %v, want [1 1]", sol.X)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// The second equality duplicates the first; phase 1 must cope with the
	// redundant artificial row.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 2})
	p.AddConstraint([]float64{1, 1}, EQ, 2)
	p.AddConstraint([]float64{2, 2}, EQ, 4)
	p.SetBounds(0, 0, math.Inf(1))
	p.SetBounds(1, 0, math.Inf(1))
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-2) > 1e-8 {
		t.Errorf("objective = %v, want 2 at (2,0)", sol.Objective)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.SetBounds(0, 0, 10)
	q := p.Clone()
	q.SetBounds(0, 5, 10)
	if got := p.Solve().X[0]; math.Abs(got) > 1e-9 {
		t.Errorf("original mutated: x = %v", got)
	}
	if got := q.Solve().X[0]; math.Abs(got-5) > 1e-9 {
		t.Errorf("clone bound ignored: x = %v", got)
	}
}

// TestRandomAgainstVertexEnumeration cross-checks the simplex against brute
// force vertex enumeration on random bounded 2-D and 3-D problems.
func TestRandomAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(2) // 2 or 3 dims
		nrows := n + 1 + rng.Intn(5)

		// Box [-B, B]^n plus random halfspaces kept feasible at the origin.
		B := 1.0 + rng.Float64()*4
		type hs struct {
			a []float64
			b float64
		}
		var rowsets []hs
		for i := 0; i < n; i++ {
			e := make([]float64, n)
			e[i] = 1
			rowsets = append(rowsets, hs{a: e, b: B})
			e2 := make([]float64, n)
			e2[i] = -1
			rowsets = append(rowsets, hs{a: e2, b: B})
		}
		for i := 0; i < nrows; i++ {
			a := make([]float64, n)
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			rowsets = append(rowsets, hs{a: a, b: 0.1 + rng.Float64()*3})
		}
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.NormFloat64()
		}

		p := NewProblem(n)
		p.SetObjective(c)
		for _, r := range rowsets {
			p.AddConstraint(r.a, LE, r.b)
		}
		sol := p.Solve()
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status = %v (problem contains origin)", trial, sol.Status)
		}

		// Brute force: every n-subset of active constraints defines a
		// candidate vertex; keep feasible ones and take the best.
		best := math.Inf(1)
		idx := make([]int, n)
		var rec func(start, k int)
		rec = func(start, k int) {
			if k == n {
				a := mat.New(n, n)
				b := make(mat.Vec, n)
				for r, ri := range idx {
					copy(a.Data[r*n:(r+1)*n], rowsets[ri].a)
					b[r] = rowsets[ri].b
				}
				x, err := mat.Solve(a, b)
				if err != nil {
					return
				}
				for _, r := range rowsets {
					s := 0.0
					for j := range x {
						s += r.a[j] * x[j]
					}
					if s > r.b+1e-7 {
						return
					}
				}
				obj := 0.0
				for j := range x {
					obj += c[j] * x[j]
				}
				if obj < best {
					best = obj
				}
				return
			}
			for i := start; i < len(rowsets); i++ {
				idx[k] = i
				rec(i+1, k+1)
			}
		}
		rec(0, 0)

		if math.Abs(sol.Objective-best) > 1e-6*(1+math.Abs(best)) {
			t.Fatalf("trial %d: simplex %v vs brute force %v", trial, sol.Objective, best)
		}
		// The reported X must be feasible.
		for _, r := range rowsets {
			s := 0.0
			for j := range sol.X {
				s += r.a[j] * sol.X[j]
			}
			if s > r.b+1e-7 {
				t.Fatalf("trial %d: solution infeasible: %v", trial, sol.X)
			}
		}
	}
}
