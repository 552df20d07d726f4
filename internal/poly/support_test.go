package poly

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"oic/internal/lp"
	"oic/internal/mat"
)

// oneShotSupport solves max d·x over p as a fresh one-shot LP.
func oneShotSupport(p *Polytope, d mat.Vec) *lp.Solution {
	prob := lp.NewProblem(p.Dim())
	for i := 0; i < p.A.R; i++ {
		prob.AddConstraint(p.A.RowView(i), lp.LE, p.B[i])
	}
	neg := make([]float64, len(d))
	for i, v := range d {
		neg[i] = -v
	}
	prob.SetObjective(neg)
	return prob.Solve()
}

// TestSupportQueriesMatchOneShotSolves holds every support query, those
// that share one polytope's phase 1 and Support's one-query case, to a
// fresh one-shot solve of the same LP (lp.Problem.Solve): the same
// outcome and, when bounded, every bit of h and of the maximizer. The
// polytopes are 2000 seeded random ones of dimension 1–3 and 1–40 rows,
// empty and unbounded ones included, each asked its own row normals, the
// signed axes and a few random directions in one sequence.
func TestSupportQueriesMatchOneShotSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	coef := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(5) - 2)
		}
		return rng.NormFloat64()
	}
	var outcomes [lp.Unbounded + 1]int
	for trial := 0; trial < 2000; trial++ {
		n, m := 1+rng.Intn(3), 1+rng.Intn(40)
		a := mat.New(m, n)
		b := make(mat.Vec, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, coef())
			}
			if b[i] = rng.ExpFloat64(); rng.Intn(25) == 0 {
				b[i] = -2 * b[i]
			}
		}
		p := New(a, b)
		var dirs []mat.Vec
		for i := 0; i < m && i < 8; i++ {
			dirs = append(dirs, p.A.Row(i))
		}
		for j := 0; j < n; j++ {
			e := make(mat.Vec, n)
			e[j] = 1
			dirs = append(dirs, e, e.Scale(-1))
		}
		for k := rng.Intn(4); k > 0; k-- {
			d := make(mat.Vec, n)
			for j := range d {
				d[j] = coef()
			}
			dirs = append(dirs, d)
		}
		sp := p.supports()
		for k, d := range dirs {
			want := oneShotSupport(p, d)
			h, x, err := sp.at(d)
			h1, x1, err1 := p.Support(d)
			for _, got := range []struct {
				h   float64
				x   []float64
				err error
			}{{h, x, err}, {h1, x1, err1}} {
				switch want.Status {
				case lp.Optimal:
					if got.err != nil {
						t.Fatalf("trial %d, direction %d %v: %v, one-shot optimal", trial, k, d, got.err)
					}
					if math.Float64bits(got.h) != math.Float64bits(-want.Objective) {
						t.Fatalf("trial %d, direction %d %v: h = %v, one-shot %v", trial, k, d, got.h, -want.Objective)
					}
					for j := range want.X {
						if math.Float64bits(got.x[j]) != math.Float64bits(want.X[j]) {
							t.Fatalf("trial %d, direction %d %v: x = %v, one-shot %v", trial, k, d, got.x, want.X)
						}
					}
				case lp.Unbounded:
					if !errors.Is(got.err, ErrUnbounded) || !math.IsInf(got.h, 1) {
						t.Fatalf("trial %d, direction %d %v: %v %v, one-shot unbounded", trial, k, d, got.h, got.err)
					}
				case lp.Infeasible:
					if !errors.Is(got.err, ErrEmpty) || !math.IsInf(got.h, -1) {
						t.Fatalf("trial %d, direction %d %v: %v %v, one-shot infeasible", trial, k, d, got.h, got.err)
					}
				default:
					t.Fatalf("trial %d, direction %d: one-shot status %v", trial, k, want.Status)
				}
			}
			outcomes[want.Status]++
		}
	}
	t.Logf("bounded %d, empty %d, unbounded %d", outcomes[lp.Optimal], outcomes[lp.Infeasible], outcomes[lp.Unbounded])
	for st, c := range outcomes {
		if c == 0 {
			t.Fatalf("no query was %v: %v", lp.Status(st), outcomes)
		}
	}
}
