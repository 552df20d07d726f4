package trace

import "fmt"

// Recorder accumulates one episode's steps into flat per-field arenas
// (one slice per field family, not three slices per step), so the
// amortized per-step cost is three bounded appends and a flag byte — the
// recording hook the pkg/oic facade and fleets call on their hot path.
// Materialize the episode with Trace.
//
// A Recorder is not safe for concurrent use; each session or fleet member
// owns its own.
type Recorder struct {
	meta   Meta
	nx, nu int
	x0     []float64
	limit  int // 0 = unlimited

	flags   []byte
	w, u, x []float64 // arenas: step i occupies [i*dim, (i+1)*dim)
	energy  float64
}

// NewRecorder starts a recording at x0. limit caps the recorded steps
// (0 = unlimited); once reached, Append refuses further steps, so a
// server-side recording cannot grow without bound.
func NewRecorder(meta Meta, x0 []float64, nu, limit int) *Recorder {
	return &Recorder{
		meta:  meta,
		nx:    len(x0),
		nu:    nu,
		x0:    append([]float64(nil), x0...),
		limit: limit,
	}
}

// Len returns the number of recorded steps.
func (r *Recorder) Len() int { return len(r.flags) }

// Full reports whether the recorder reached its step limit.
func (r *Recorder) Full() bool { return r.limit > 0 && len(r.flags) >= r.limit }

// Append records one executed step (the slices are copied, so the views
// a core session returns are fine). It returns an error when the recorder
// is full or the step does not fit the episode (CheckStep); the episode
// recorded so far stays intact either way.
func (r *Recorder) Append(st Step) error {
	if r.Full() {
		return fmt.Errorf("trace: recording full at %d steps", r.limit)
	}
	if err := CheckStep(&st, r.nx, r.nu); err != nil {
		return fmt.Errorf("trace: Append: %w", err)
	}
	r.flags = append(r.flags, stepFlags(&st))
	r.w = append(r.w, st.W...)
	r.u = append(r.u, st.U...)
	r.x = append(r.x, st.X...)
	// Σ‖u‖₁ through the same Norm1 core.Result accumulates with, so the
	// recorded energy is bit-identical to the runtime's own counter.
	r.energy += st.U.Norm1()
	return nil
}

// Trace materializes the recording into an owned Trace; the recorder
// remains usable and may keep appending. Step slices are views into one
// backing array per field, copied out of the arenas.
func (r *Recorder) Trace() *Trace {
	n := len(r.flags)
	t := &Trace{
		Version: Version,
		Meta:    r.meta,
		NX:      r.nx,
		NU:      r.nu,
		X0:      append([]float64(nil), r.x0...),
		Energy:  r.energy,
	}
	if n == 0 {
		return t
	}
	w := append([]float64(nil), r.w...)
	u := append([]float64(nil), r.u...)
	x := append([]float64(nil), r.x...)
	t.Steps = make([]Step, n)
	for i := 0; i < n; i++ {
		st := stepFromFlags(r.flags[i])
		st.W = w[i*r.nx : (i+1)*r.nx : (i+1)*r.nx]
		st.U = u[i*r.nu : (i+1)*r.nu : (i+1)*r.nu]
		st.X = x[i*r.nx : (i+1)*r.nx : (i+1)*r.nx]
		t.Steps[i] = st
	}
	return t
}
