package controller

import (
	"errors"
	"fmt"
	"math"

	"oic/internal/lp"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/poly"
	"oic/internal/reach"
)

// RMPCConfig parameterizes the tube-based robust MPC of Eq. 5 in the paper
// (after Chisci, Rossiter, Zappa 2001): a nominal prediction model with
// recursively tightened constraints X(k) = X(k−1) ⊖ A^{k−1}·W and a robust
// invariant terminal set.
type RMPCConfig struct {
	Horizon     int     // prediction horizon N (paper: 10)
	StateWeight float64 // P in the 1-norm stage cost P‖x−XRef‖₁
	InputWeight float64 // Q in the 1-norm stage cost Q‖u−URef‖₁

	// XRef/URef shift the stage cost so tracking a nonzero equilibrium is
	// expressible in physical coordinates; nil means the origin (the
	// paper's shifted coordinates).
	XRef mat.Vec
	URef mat.Vec

	// TerminalSet overrides the terminal constraint Xt. When nil it is
	// computed as the maximal robust invariant subset of X(N) under the
	// affine feedback with LocalGain.
	TerminalSet *poly.Polytope
	// LocalGain is the terminal local controller κL's gain; nil means an
	// LQR gain with identity weights.
	LocalGain *mat.Mat
}

// RMPC is the robust model predictive controller κR. Its 1-norm objective
// makes every Compute call a linear program; the horizon LP is compiled
// once at construction (constraint matrix, objective, sparsity) and every
// Compute only refreshes the O(rows) affine-in-x right-hand side and
// resolves warm from the previous optimal basis (DESIGN.md §5.3).
//
// An RMPC value is not safe for concurrent use: the warm-start workspace
// is mutable call-to-call state. Concurrent (or determinism-sensitive)
// callers obtain independent handles over the shared compiled program via
// ForSession — core.Session does this automatically.
type RMPC struct {
	sys *lti.System
	cfg RMPCConfig

	tightened []*poly.Polytope // X(0) … X(N)
	terminal  *poly.Polytope   // Xt ⊆ X(N)
	apow      []*mat.Mat       // A^0 … A^N
	abpow     []*mat.Mat       // A^0·B … A^{N−1}·B (the hoisted coef(k,j) products)
	drift     []mat.Vec        // d_k = Σ_{i<k} A^i·c
	gain      *mat.Mat         // local gain used for the terminal set

	prog *rmpcProgram   // compiled horizon LP (shared, immutable)
	ws   *rmpcWorkspace // this handle's solver workspace (mutable)

	feasible *poly.Polytope // lazily computed feasible region (Prop. 1)
}

// rmpcProgram is the compiled horizon LP of Eq. 5: the constraint matrix,
// objective, and bounds are state-independent; only the right-hand side is
// affine in the measured state, rhs(x) = rhsConst + rhsGrad·x.
//
// The 1-norm input cost is posed through the split u(k) = URef + u⁺(k) −
// u⁻(k) with u⁺, u⁻ ≥ 0 and cost Q·(u⁺ + u⁻), which both removes the au
// auxiliary variables with their 2·N·nu absolute-value rows and keeps
// every remaining variable nonnegative (no free-variable column split in
// the solver). The state deviation cost keeps explicit ax variables —
// x(k) is an affine expression of the inputs, so its absolute value needs
// the two-row epigraph form.
type rmpcProgram struct {
	nx, nu, n           int
	upOff, unOff, axOff int
	nvars               int

	solver   *lp.Solver // compile master; workspaces Fork it
	rhsConst []float64  // rows
	rhsGrad  []float64  // rows × nx, row-major (zero rows for state-independent constraints)
}

// rmpcWorkspace is the per-handle mutable solve state: a forked solver
// (own tableau, own warm basis) plus the reused rhs buffer.
type rmpcWorkspace struct {
	sv  *lp.Solver
	rhs []float64
}

func (p *rmpcProgram) newWorkspace() *rmpcWorkspace {
	return &rmpcWorkspace{sv: p.solver.Fork(), rhs: make([]float64, p.solver.NumRows())}
}

// NewRMPC constructs the controller, precomputing tightened constraint
// sets, the terminal set, and the nominal prediction matrices. sys must
// have X, U, and W constraint sets.
func NewRMPC(sys *lti.System, cfg RMPCConfig) (*RMPC, error) {
	if sys.X == nil || sys.U == nil || sys.W == nil {
		return nil, errors.New("controller: NewRMPC: system must have X, U, and W sets")
	}
	if cfg.Horizon < 1 {
		return nil, fmt.Errorf("controller: NewRMPC: horizon %d < 1", cfg.Horizon)
	}
	if cfg.StateWeight < 0 || cfg.InputWeight < 0 {
		return nil, errors.New("controller: NewRMPC: negative cost weight")
	}
	if cfg.XRef == nil {
		cfg.XRef = make(mat.Vec, sys.NX())
	}
	if cfg.URef == nil {
		cfg.URef = make(mat.Vec, sys.NU())
	}
	n := cfg.Horizon

	r := &RMPC{sys: sys, cfg: cfg}

	// Powers of A, the hoisted input-sensitivity products A^i·B (the
	// coef(k, j) = A^{k−1−j}·B terms of the prediction), and accumulated
	// drift d_k = Σ_{i<k} A^i c.
	r.apow = make([]*mat.Mat, n+1)
	r.abpow = make([]*mat.Mat, n)
	r.drift = make([]mat.Vec, n+1)
	r.apow[0] = mat.Identity(sys.NX())
	r.drift[0] = make(mat.Vec, sys.NX())
	for k := 1; k <= n; k++ {
		r.apow[k] = r.apow[k-1].Mul(sys.A)
		r.drift[k] = r.apow[k-1].MulVec(sys.C).Add(r.drift[k-1])
	}
	for k := 0; k < n; k++ {
		r.abpow[k] = r.apow[k].Mul(sys.B)
	}

	// Tightened constraints per the paper's recursion:
	// X(0) = X, X(k) = X(k−1) ⊖ A^{k−1}·W.
	r.tightened = make([]*poly.Polytope, n+1)
	r.tightened[0] = sys.X.ReduceRedundancy()
	for k := 1; k <= n; k++ {
		tk, err := poly.ErodeMapped(r.tightened[k-1], r.apow[k-1], sys.W)
		if err != nil {
			return nil, fmt.Errorf("controller: NewRMPC: tightening step %d: %w", k, err)
		}
		if tk.IsEmpty() {
			return nil, fmt.Errorf("controller: NewRMPC: tightened set X(%d) is empty; disturbance too large for horizon %d", k, n)
		}
		r.tightened[k] = tk
	}

	// Terminal set.
	if cfg.TerminalSet != nil {
		r.terminal = cfg.TerminalSet
	} else {
		gain := cfg.LocalGain
		if gain == nil {
			var err error
			gain, err = LQR(sys.A, sys.B, mat.Identity(sys.NX()), mat.Identity(sys.NU()), 0, 0)
			if err != nil {
				return nil, fmt.Errorf("controller: NewRMPC: terminal LQR synthesis: %w", err)
			}
		}
		r.gain = gain
		term, err := r.computeTerminalSet(gain)
		if err != nil {
			return nil, err
		}
		r.terminal = term
	}
	if r.terminal.IsEmpty() {
		return nil, errors.New("controller: NewRMPC: terminal set is empty")
	}
	r.prog = r.compileProgram()
	r.ws = r.prog.newWorkspace()
	return r, nil
}

// compileProgram builds the horizon LP once: variable layout, objective,
// bounds, the full constraint matrix, and the affine-in-x description of
// the right-hand side. Everything Compute needs per step afterwards is an
// O(rows·nx) rhs refresh plus a warm LP resolve.
func (r *RMPC) compileProgram() *rmpcProgram {
	sys := r.sys
	nx, nu, n := sys.NX(), sys.NU(), r.cfg.Horizon

	// Variable layout: u⁺(0..N−1) | u⁻(0..N−1) | ax(1..N−1), all ≥ 0,
	// with u(k) = URef + u⁺(k) − u⁻(k).
	p := &rmpcProgram{nx: nx, nu: nu, n: n}
	p.upOff = 0
	p.unOff = n * nu
	p.axOff = 2 * n * nu
	p.nvars = p.axOff + (n-1)*nx

	prob := lp.NewProblem(p.nvars)
	obj := make([]float64, p.nvars)
	for j := 0; j < 2*n*nu; j++ {
		obj[j] = r.cfg.InputWeight // Q·(u⁺ + u⁻) = Q·|u − URef| at the optimum
	}
	for k := 1; k < n; k++ {
		for i := 0; i < nx; i++ {
			obj[p.axOff+(k-1)*nx+i] = r.cfg.StateWeight
		}
	}
	prob.SetObjective(obj)
	for j := 0; j < p.nvars; j++ {
		prob.SetBounds(j, 0, math.Inf(1))
	}

	// With the input split, the nominal prediction is
	// x(k) = A^k·x + Σ_{j<k} A^{k−1−j}·B·(URef + u⁺(j) − u⁻(j)) + d_k,
	// so the reference contribution bsum_k = Σ_{i<k} A^i·B·URef joins the
	// drift on the constant side of every state row.
	bsum := make([]mat.Vec, n+1)
	bsum[0] = make(mat.Vec, nx)
	buref := sys.B.MulVec(r.cfg.URef)
	for k := 1; k <= n; k++ {
		bsum[k] = bsum[k-1].Add(r.apow[k-1].MulVec(buref))
	}

	// rhs(x) = rhsConst + rhsGrad·x, accumulated row by row alongside the
	// constraint matrix. A state row h·x(k) ≤ h_b contributes const
	// h_b − h·(d_k + bsum_k) and gradient −hᵀ·A^k.
	var rhsConst []float64
	var rhsGrad []float64
	addRow := func(coeffs []float64, c float64, g mat.Vec) {
		prob.AddConstraint(coeffs, lp.LE, c)
		rhsConst = append(rhsConst, c)
		if g == nil {
			rhsGrad = append(rhsGrad, make([]float64, nx)...)
		} else {
			rhsGrad = append(rhsGrad, g...)
		}
	}

	coeffs := make([]float64, p.nvars)
	clear := func() {
		for i := range coeffs {
			coeffs[i] = 0
		}
	}

	addStateRows := func(k int, set *poly.Polytope) {
		hak := set.A.Mul(r.apow[k]) // row r: hᵀ·A^k
		for row := 0; row < set.A.R; row++ {
			h := set.A.RowView(row)
			clear()
			for j := 0; j < k; j++ {
				cb := r.abpow[k-1-j]
				for c := 0; c < nu; c++ {
					s := 0.0
					for i := 0; i < nx; i++ {
						s += h[i] * cb.At(i, c)
					}
					coeffs[p.upOff+j*nu+c] = s
					coeffs[p.unOff+j*nu+c] = -s
				}
			}
			g := make(mat.Vec, nx)
			for i := 0; i < nx; i++ {
				g[i] = -hak.At(row, i)
			}
			addRow(coeffs, set.B[row]-h.Dot(r.drift[k])-h.Dot(bsum[k]), g)
		}
	}
	for k := 1; k < n; k++ {
		addStateRows(k, r.tightened[k])
	}
	addStateRows(n, r.terminal)

	// Input constraints H_U·u(k) ≤ h_U (state-independent):
	// H_U·(u⁺ − u⁻) ≤ h_U − H_U·URef.
	huref := sys.U.A.MulVec(r.cfg.URef)
	for k := 0; k < n; k++ {
		for row := 0; row < sys.U.A.R; row++ {
			clear()
			for c := 0; c < nu; c++ {
				coeffs[p.upOff+k*nu+c] = sys.U.A.At(row, c)
				coeffs[p.unOff+k*nu+c] = -sys.U.A.At(row, c)
			}
			addRow(coeffs, sys.U.B[row]-huref[row], nil)
		}
	}

	// |x(k) − XRef| ≤ ax(k) componentwise, k = 1..N−1:
	// ±(x(k)−XRef) − ax(k) ≤ 0, with the input-independent part of x(k)
	// moved to the rhs.
	for k := 1; k < n; k++ {
		for i := 0; i < nx; i++ {
			for _, sign := range []float64{1, -1} {
				clear()
				for j := 0; j < k; j++ {
					cb := r.abpow[k-1-j]
					for c := 0; c < nu; c++ {
						coeffs[p.upOff+j*nu+c] = sign * cb.At(i, c)
						coeffs[p.unOff+j*nu+c] = -sign * cb.At(i, c)
					}
				}
				coeffs[p.axOff+(k-1)*nx+i] = -1
				g := make(mat.Vec, nx)
				for j := 0; j < nx; j++ {
					g[j] = -sign * r.apow[k].At(i, j)
				}
				addRow(coeffs, sign*(r.cfg.XRef[i]-r.drift[k][i]-bsum[k][i]), g)
			}
		}
	}

	p.solver = lp.NewSolver(prob)
	p.rhsConst = rhsConst
	p.rhsGrad = rhsGrad
	return p
}

// ForSession returns a controller handle sharing this RMPC's compiled
// program and offline sets but owning a fresh warm-start workspace.
// Handles are what make concurrent sessions race-free and every session's
// solve chain deterministic (cold first step, then warm) regardless of
// scheduling.
func (r *RMPC) ForSession() Controller {
	cp := *r
	cp.ws = r.prog.newWorkspace()
	return &cp
}

// ResetSession implements SessionResetter: it returns this handle's
// warm-start workspace to its cold state (keeping the allocated tableau),
// so a pooled handle behaves byte-identically to a fresh ForSession fork.
func (r *RMPC) ResetSession() { r.ws.sv.ResetWarm() }

// computeTerminalSet returns the maximal robust invariant subset of X(N)
// where the local affine feedback u = gain·(x−XRef) + URef is admissible:
// the standard choice satisfying the stability premise of Proposition 1.
func (r *RMPC) computeTerminalSet(gain *mat.Mat) (*poly.Polytope, error) {
	sys := r.sys
	// Input-admissibility of the local law as state constraints:
	// H_U·(K(x−xref)+uref) ≤ h_U  ⇔  (H_U·K)·x ≤ h_U − H_U·(uref − K·xref).
	off := r.cfg.URef.Sub(gain.MulVec(r.cfg.XRef))
	ha := sys.U.A.Mul(gain)
	hb := sys.U.B.Sub(sys.U.A.MulVec(off))
	admissible := poly.New(ha, hb)

	domain := poly.Intersect(r.tightened[r.cfg.Horizon], admissible).ReduceRedundancy()
	if domain.IsEmpty() {
		return nil, errors.New("controller: NewRMPC: no input-admissible terminal region")
	}
	acl, ccl := sys.ClosedLoop(gain, r.cfg.XRef, r.cfg.URef)
	term, err := reach.MaximalInvariantSet(domain, acl, ccl, sys.W)
	if err != nil {
		return nil, fmt.Errorf("controller: NewRMPC: terminal invariant set: %w", err)
	}
	return term, nil
}

// Name implements Controller.
func (r *RMPC) Name() string { return "rmpc" }

// TightenedSets returns X(0)…X(N) (shared slices; do not mutate).
func (r *RMPC) TightenedSets() []*poly.Polytope { return r.tightened }

// TerminalSet returns Xt.
func (r *RMPC) TerminalSet() *poly.Polytope { return r.terminal }

// solveAt refreshes the affine-in-x right-hand side and resolves the
// compiled horizon LP, warm-starting from this handle's previous basis.
// The returned Solution is owned by the workspace and only valid until the
// next solve.
func (r *RMPC) solveAt(x mat.Vec) (*lp.Solution, error) {
	p := r.prog
	if len(x) != p.nx {
		panic(fmt.Sprintf("controller: RMPC.Compute: state dim %d, want %d", len(x), p.nx))
	}
	if !r.tightened[0].Contains(x, 1e-7) {
		return nil, fmt.Errorf("%w: state outside X(0)", ErrInfeasible)
	}
	ws := r.ws
	for i := range ws.rhs {
		acc := p.rhsConst[i]
		g := p.rhsGrad[i*p.nx : (i+1)*p.nx]
		for j, gv := range g {
			acc += gv * x[j]
		}
		ws.rhs[i] = acc
	}
	sol := ws.sv.SolveRHS(ws.rhs)
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("%w: LP status %v", ErrInfeasible, sol.Status)
	}
	return sol, nil
}

// inputAt reconstructs u(k) = URef + u⁺(k) − u⁻(k) from the LP solution.
func (p *rmpcProgram) inputAt(dst mat.Vec, uref mat.Vec, X []float64, k int) {
	for c := 0; c < p.nu; c++ {
		dst[c] = uref[c] + X[p.upOff+k*p.nu+c] - X[p.unOff+k*p.nu+c]
	}
}

// Compute implements Controller: it solves the horizon LP and returns the
// first planned input u*(0|t) without materializing the rest of the
// sequence (one O(nu) allocation per call).
func (r *RMPC) Compute(x mat.Vec) (mat.Vec, error) {
	sol, err := r.solveAt(x)
	if err != nil {
		return nil, err
	}
	u := make(mat.Vec, r.prog.nu)
	r.prog.inputAt(u, r.cfg.URef, sol.X, 0)
	return u, nil
}

// ComputeSequence solves the horizon optimization (Eq. 5) and returns the
// full planned input sequence u*(0|t) … u*(N−1|t).
func (r *RMPC) ComputeSequence(x mat.Vec) ([]mat.Vec, error) {
	sol, err := r.solveAt(x)
	if err != nil {
		return nil, err
	}
	p := r.prog
	seq := make([]mat.Vec, p.n)
	for k := 0; k < p.n; k++ {
		u := make(mat.Vec, p.nu)
		p.inputAt(u, r.cfg.URef, sol.X, k)
		seq[k] = u
	}
	return seq, nil
}

// FeasibleSet returns the feasible region X_F of the horizon optimization
// projected onto the state (Proposition 1: X_F is the robust control
// invariant set XI of the RMPC). The result is cached.
func (r *RMPC) FeasibleSet() (*poly.Polytope, error) {
	if r.feasible != nil {
		return r.feasible, nil
	}
	sys := r.sys
	nx, nu, n := sys.NX(), sys.NU(), r.cfg.Horizon
	nvars := nx + n*nu // (x0, u(0..N−1)); aux cost variables do not bind

	var rows []mat.Vec
	var rhs []float64
	add := func(c mat.Vec, b float64) {
		rows = append(rows, c)
		rhs = append(rhs, b)
	}

	// x0 ∈ X(0).
	for row := 0; row < r.tightened[0].A.R; row++ {
		c := make(mat.Vec, nvars)
		copy(c[:nx], r.tightened[0].A.Row(row))
		add(c, r.tightened[0].B[row])
	}
	// State constraints: H·(A^k·x0 + Σ A^{k−1−j}B·u(j) + d_k) ≤ h.
	state := func(k int, set *poly.Polytope) {
		ha := set.A.Mul(r.apow[k])
		for row := 0; row < set.A.R; row++ {
			c := make(mat.Vec, nvars)
			for i := 0; i < nx; i++ {
				c[i] = ha.At(row, i)
			}
			h := set.A.RowView(row)
			for j := 0; j < k; j++ {
				cb := r.abpow[k-1-j]
				for col := 0; col < nu; col++ {
					s := 0.0
					for i := 0; i < nx; i++ {
						s += h[i] * cb.At(i, col)
					}
					c[nx+j*nu+col] = s
				}
			}
			add(c, set.B[row]-h.Dot(r.drift[k]))
		}
	}
	for k := 1; k < n; k++ {
		state(k, r.tightened[k])
	}
	state(n, r.terminal)
	// Input constraints.
	for k := 0; k < n; k++ {
		for row := 0; row < sys.U.A.R; row++ {
			c := make(mat.Vec, nvars)
			for col := 0; col < nu; col++ {
				c[nx+k*nu+col] = sys.U.A.At(row, col)
			}
			add(c, sys.U.B[row])
		}
	}

	a := mat.New(len(rows), nvars)
	for i, rrow := range rows {
		for j := 0; j < nvars; j++ {
			a.Set(i, j, rrow[j])
		}
	}
	joint := poly.New(a, rhs)
	keep := make([]int, nx)
	for j := range keep {
		keep[j] = j
	}
	r.feasible = joint.Project(keep).ReduceRedundancy()
	return r.feasible, nil
}
