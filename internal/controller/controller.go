// Package controller provides the safe feedback controllers κ that the
// intermittent-control framework wraps: affine state feedback (with LQR
// gain synthesis) and the tube-based robust model predictive controller of
// Chisci, Rossiter, and Zappa that the paper uses for its ACC case study.
package controller

import (
	"errors"
	"fmt"

	"oic/internal/lti"
	"oic/internal/mat"
)

// Controller computes a control input from the measured state. It is the κ
// of the paper: a controller that, applied at every step, keeps the system
// inside its robust invariant set.
type Controller interface {
	// Compute returns the input for state x, or an error when no
	// admissible input exists (e.g. MPC infeasibility outside the
	// feasible region).
	Compute(x mat.Vec) (mat.Vec, error)
	// Name identifies the controller in logs and experiment tables.
	Name() string
}

// SessionController is implemented by controllers that keep mutable
// per-call solver state (e.g. the RMPC's warm-start workspace). ForSession
// returns a handle that shares the expensive compiled and offline data but
// owns a fresh workspace, so concurrent sessions never race and each
// session's results depend only on its own call sequence — core.Session
// forks one automatically.
type SessionController interface {
	Controller
	ForSession() Controller
}

// SessionResetter is implemented by session handles whose mutable solve
// workspace can be returned to its post-construction (cold) state without
// reallocating. Resetting is what makes handles poolable: a reused handle's
// solve chain is indistinguishable from a freshly forked one's, so session
// pools (pkg/oic) recycle the expensive workspace buffers while preserving
// per-session determinism. core.Session.Reset calls it automatically.
type SessionResetter interface {
	Controller
	ResetSession()
}

// AffineFeedback is u = K·(x − XRef) + URef, the analytic controller class
// for which the paper's model-based skipping approach applies.
type AffineFeedback struct {
	K    *mat.Mat
	XRef mat.Vec
	URef mat.Vec
}

// NewAffineFeedback returns the affine feedback law u = k·(x−xref) + uref.
// nil references default to zero vectors.
func NewAffineFeedback(k *mat.Mat, xref, uref mat.Vec) *AffineFeedback {
	if xref == nil {
		xref = make(mat.Vec, k.C)
	}
	if uref == nil {
		uref = make(mat.Vec, k.R)
	}
	if len(xref) != k.C || len(uref) != k.R {
		panic(fmt.Sprintf("controller: NewAffineFeedback: K is %dx%d but refs are %d/%d",
			k.R, k.C, len(uref), len(xref)))
	}
	return &AffineFeedback{K: k, XRef: xref.Clone(), URef: uref.Clone()}
}

// Compute implements Controller. It allocates only the returned input:
// x − XRef goes through a stack buffer when nx is small, and URef is added
// in place, in the same operations and order as K.MulVec(x.Sub(XRef)).Add(URef).
func (f *AffineFeedback) Compute(x mat.Vec) (mat.Vec, error) {
	if len(x) != len(f.XRef) {
		panic(fmt.Sprintf("controller: AffineFeedback.Compute: state dim %d, want %d", len(x), len(f.XRef)))
	}
	var buf [8]float64
	var dx mat.Vec
	if len(x) <= len(buf) {
		dx = buf[:len(x)]
	} else {
		dx = make(mat.Vec, len(x))
	}
	for i, xi := range x {
		dx[i] = xi - f.XRef[i]
	}
	u := make(mat.Vec, f.K.R)
	f.K.MulVecInto(u, dx)
	for i, r := range f.URef {
		u[i] += r
	}
	return u, nil
}

// Name implements Controller.
func (f *AffineFeedback) Name() string { return "affine-feedback" }

// EquilibriumInput solves B·u = xref − A·xref − c for the input that holds
// the system at xref, via the normal equations. It errors when no exact
// equilibrium input exists (residual above tol).
func EquilibriumInput(sys *lti.System, xref mat.Vec, tol float64) (mat.Vec, error) {
	if tol <= 0 {
		tol = 1e-8
	}
	rhs := xref.Sub(sys.A.MulVec(xref)).Sub(sys.C)
	bt := sys.B.T()
	btb := bt.Mul(sys.B)
	u, err := mat.Solve(btb, bt.MulVec(rhs))
	if err != nil {
		return nil, fmt.Errorf("controller: EquilibriumInput: %w", err)
	}
	if resid := sys.B.MulVec(u).Sub(rhs).NormInf(); resid > tol {
		return nil, fmt.Errorf("controller: EquilibriumInput: no exact equilibrium at %v (residual %g)", xref, resid)
	}
	return u, nil
}

// ErrInfeasible is returned by optimization-based controllers when the
// current state admits no constraint-satisfying input plan.
var ErrInfeasible = errors.New("controller: optimization infeasible")
