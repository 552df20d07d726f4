package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// objectivesMatchFresh answers every cost in costs, in order, through one
// Objectives over p, and each through a fresh NewSolver of p with that
// objective, and requires the same status and, when optimal, every bit
// of X and the objective. It returns each answer's status.
func objectivesMatchFresh(t *testing.T, label string, p *Problem, costs [][]float64) []Status {
	t.Helper()
	q := p.Clone()
	o := NewObjectives(p)
	got := make([]Status, len(costs))
	for k, c := range costs {
		sol := o.Solve(c)
		q.SetObjective(c)
		want := NewSolver(q).Solve()
		if sol.Status != want.Status {
			t.Fatalf("%s, objective %d %v: status %v, fresh solver %v", label, k, c, sol.Status, want.Status)
		}
		got[k] = sol.Status
		if want.Status != Optimal {
			continue
		}
		for j, x := range want.X {
			if math.Float64bits(sol.X[j]) != math.Float64bits(x) {
				t.Fatalf("%s, objective %d %v: x[%d] = %v (%#x), fresh solver %v (%#x)",
					label, k, c, j, sol.X[j], math.Float64bits(sol.X[j]), x, math.Float64bits(x))
			}
		}
		if math.Float64bits(sol.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("%s, objective %d %v: objective %v, fresh solver %v", label, k, c, sol.Objective, want.Objective)
		}
	}
	return got
}

// drawCosts draws k objectives of n coefficients from coldCoefs.
func drawCosts(pick func(n int) int, n, k int) [][]float64 {
	costs := make([][]float64, k)
	for i := range costs {
		costs[i] = make([]float64, n)
		for j := range costs[i] {
			costs[i][j] = coldCoefs[pick(len(coldCoefs))]
		}
	}
	return costs
}

// TestObjectivesMatchFreshSolves holds Objectives to fresh solvers over
// 4000 seeded random programs (drawColdProgram), each asked 2–5
// objectives in a row. It also requires the shapes the comparison is
// about: optimal, infeasible and unbounded answers, optimal answers on
// programs whose phase 1 needed artificials, and programs where one
// objective is optimal and a later one unbounded, or the other way round.
func TestObjectivesMatchFreshSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var statuses [IterLimit + 1]int
	withArt, mixed := 0, 0
	for trial := 0; trial < 4000; trial++ {
		p := drawColdProgram(rng.Intn)
		got := objectivesMatchFresh(t, fmt.Sprintf("trial %d", trial), p,
			drawCosts(rng.Intn, p.NumVars(), 2+rng.Intn(4)))
		seen := map[Status]bool{}
		for _, st := range got {
			statuses[st]++
			seen[st] = true
		}
		if seen[Optimal] && seen[Unbounded] {
			mixed++
		}
		if seen[Optimal] {
			r := NewSolver(p)
			r.prepare(nil)
			if fullTableauSolve(r).nart > 0 {
				withArt++
			}
		}
	}
	t.Logf("answers %v, %d programs optimal with artificials, %d both optimal and unbounded", statuses, withArt, mixed)
	if statuses[Optimal] == 0 || statuses[Infeasible] == 0 || statuses[Unbounded] == 0 || withArt == 0 || mixed == 0 {
		t.Fatalf("answers %v, %d optimal with artificials, %d mixed: the programs missed a shape", statuses, withArt, mixed)
	}
}

// TestObjectivesWithoutRows covers a program with no rows, where no phase
// 1 runs: each objective is unbounded or optimal at the bounds.
func TestObjectivesWithoutRows(t *testing.T) {
	p := NewProblem(3) // x2 free
	p.SetBounds(0, -2, math.Inf(1))
	p.SetBounds(1, math.Inf(-1), 5)
	got := objectivesMatchFresh(t, "no rows", p, [][]float64{{1, -1, 0}, {1, 1, 0}, {0, -2, 1}, {0, 0, 0}})
	if got[0] != Optimal || got[1] != Unbounded || got[2] != Unbounded || got[3] != Optimal {
		t.Fatalf("statuses %v", got)
	}
}

// TestObjectivesSnapshotProblem: an Objectives answers for the problem as
// it was at NewObjectives; its kept phase 1 serves only those rows, right-
// hand sides and bounds, whatever later happens to the Problem.
func TestObjectivesSnapshotProblem(t *testing.T) {
	p := NewProblem(2)
	p.AddConstraint([]float64{1, 1}, LE, 4)
	p.AddConstraint([]float64{1, -1}, GE, -2)
	p.SetBounds(0, 0, math.Inf(1))
	q := p.Clone()
	o := NewObjectives(p)
	p.SetBounds(0, 1, 2)
	p.AddConstraint([]float64{0, 1}, LE, 0.5)
	for _, c := range [][]float64{{-1, 0}, {0, -1}, {1, 1}} {
		q.SetObjective(c)
		sol, want := o.Solve(c), q.Solve()
		if sol.Status != want.Status || sol.Objective != want.Objective {
			t.Fatalf("objective %v: %v %v, problem as compiled %v %v", c, sol.Status, sol.Objective, want.Status, want.Objective)
		}
	}
}

// FuzzObjectivesMatchFreshSolves runs objectivesMatchFresh on a program
// decoded from the input as FuzzColdSolveMatchesFullTableau decodes it,
// then 1–4 objectives whose coefficients the following bytes pick from
// coldCoefs (a missing byte reads as 0).
func FuzzObjectivesMatchFreshSolves(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 2, 3, 5, 9, 1, 0, 2, 6, 3, 7, 1, 11, 2, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1})
	f.Add([]byte{2, 1, 3, 0, 0, 7, 1, 2, 4, 2, 0, 3, 1, 0, 3, 0, 0, 1, 2, 1, 0, 2, 2, 8, 3, 1, 3, 2, 3, 4, 9, 8, 2, 11, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		p := drawColdProgram(pick)
		objectivesMatchFresh(t, "fuzz input", p, drawCosts(pick, p.NumVars(), 1+pick(4)))
	})
}
