package oic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"oic/internal/fault"
)

// tracePrefix clones the first n steps of a trace — the image a
// write-ahead journal holds after a crash mid-episode.
func tracePrefix(t *Trace, n int) *Trace {
	p := *t
	p.Steps = append([]TraceStep(nil), t.Steps[:n]...)
	return &p
}

// The step hook is write-ahead ordered and carries the full step payload:
// every successful step fires exactly one event, in step order, matching
// the wire result bit-for-bit.
func TestSessionStepHookWriteAhead(t *testing.T) {
	e := accEngine(t)
	x0, ws := fleetCase(t, e, 41, 20)
	s, err := e.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type owned struct {
		t    int
		ran  bool
		u, x []float64
	}
	var got []owned
	s.SetStepHook(func(ev StepEvent) {
		// The event's slices are views; copy what we keep. Its step index
		// is its position in the stream.
		got = append(got, owned{t: len(got), ran: ev.Ran,
			u: append([]float64(nil), ev.U...),
			x: append([]float64(nil), ev.X...)})
	})
	for i, w := range ws {
		r, err := s.Step(context.Background(), w)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if len(got) != i+1 {
			t.Fatalf("step %d: %d events, want %d", i, len(got), i+1)
		}
		ev := got[i]
		if ev.t != r.T || ev.ran != r.Ran ||
			fmt.Sprintf("%x", ev.u) != fmt.Sprintf("%x", r.U) ||
			fmt.Sprintf("%x", ev.x) != fmt.Sprintf("%x", r.X) {
			t.Fatalf("step %d: event %+v disagrees with result %+v", i, ev, r)
		}
	}
	s.SetStepHook(nil)
	if _, err := s.Step(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ws) {
		t.Fatal("cleared hook still fired")
	}
}

// The crash-recovery acceptance property at the session level: run an
// episode, cut it at an arbitrary point (the journal image), resume, and
// finish — the final trace is byte-identical to the uninterrupted run's.
func TestResumeSessionByteIdentical(t *testing.T) {
	e := accEngine(t)
	const steps, cut = 30, 17
	x0, ws := fleetCase(t, e, 7, steps)

	// Uninterrupted reference run.
	ref, err := e.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.StartTrace(0); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.StepMany(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
	full, err := ref.Trace()
	if err != nil {
		t.Fatal(err)
	}

	// Crash after `cut` steps: resume from the journaled prefix, then
	// replay the remaining disturbances.
	s, err := e.ResumeSession(tracePrefix(full, cut), ResumeOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Time() != cut {
		t.Fatalf("resumed at t=%d, want %d", s.Time(), cut)
	}
	if _, err := s.StepMany(context.Background(), ws[cut:]); err != nil {
		t.Fatal(err)
	}
	recovered, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := EncodeTrace(full)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := EncodeTrace(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, gotBytes) {
		t.Fatal("recovered episode is not byte-identical to the uninterrupted run")
	}
	if a, b := ref.Info(), s.Info(); fmt.Sprintf("%x", a.X) != fmt.Sprintf("%x", b.X) ||
		a.Energy != b.Energy || a.Runs != b.Runs || a.Skips != b.Skips {
		t.Fatalf("recovered info %+v differs from reference %+v", b, a)
	}
}

// A tampered (or torn-beyond-repair) journal must fail resume loudly:
// any bit flipped in a recorded input or successor yields
// ErrResumeMismatch, never a silently-wrong session.
func TestResumeSessionDivergenceDetected(t *testing.T) {
	e := accEngine(t)
	x0, ws := fleetCase(t, e, 9, 12)
	s, err := e.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartTrace(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepMany(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(mut func(st *TraceStep)) *Trace {
		p := tracePrefix(tr, len(tr.Steps))
		st := p.Steps[5]
		st.U = append([]float64(nil), st.U...)
		st.X = append([]float64(nil), st.X...)
		mut(&st)
		p.Steps[5] = st
		return p
	}
	for name, p := range map[string]*Trace{
		"input":     tamper(func(st *TraceStep) { st.U[0] += 1e-12 }),
		"successor": tamper(func(st *TraceStep) { st.X[0] += 1e-12 }),
	} {
		if _, err := e.ResumeSession(p, ResumeOptions{}); !errors.Is(err, ErrResumeMismatch) {
			t.Fatalf("tampered %s: err = %v, want ErrResumeMismatch", name, err)
		}
	}
}

// Fleet-level crash recovery: resume every member from its journaled
// trace under its old ID, then keep ticking — trajectories, member IDs,
// and the admission counter all match the uninterrupted fleet.
func TestFleetResumeMembers(t *testing.T) {
	e := accEngine(t)
	const n, preTicks, postTicks = 6, 10, 8
	cfg := FleetConfig{ComputeBudget: 4, Workers: 3, Trace: true}

	newFleet := func() *Fleet {
		f, err := e.NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ref := newFleet()
	defer ref.Close()

	ids := make([]int, n)
	x0s := make([][]float64, n)
	dist := make([][][]float64, n)
	for i := 0; i < n; i++ {
		var err error
		x0s[i], dist[i] = fleetCase(t, e, int64(100+i), preTicks+postTicks)
		if ids[i], err = ref.Admit(x0s[i]); err != nil {
			t.Fatal(err)
		}
	}
	tickAll := func(f *Fleet, from, to int) []TickReport {
		var reps []TickReport
		for k := from; k < to; k++ {
			ws := map[int][]float64{}
			for i, id := range ids {
				ws[id] = dist[i][k]
			}
			rep, err := f.Tick(context.Background(), ws)
			if err != nil {
				t.Fatalf("tick %d: %v", k, err)
			}
			if len(rep.Errors) != 0 || rep.Violations != 0 {
				t.Fatalf("tick %d: errors=%v violations=%d", k, rep.Errors, rep.Violations)
			}
			reps = append(reps, rep)
		}
		return reps
	}
	tickAll(ref, 0, preTicks)

	// "Crash": capture each member's journal image and rebuild a fleet.
	rec := newFleet()
	defer rec.Close()
	for _, id := range ids {
		tr, err := ref.MemberTrace(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.ResumeMember(id, tr); err != nil {
			t.Fatalf("resume member %d: %v", id, err)
		}
	}
	for _, id := range ids {
		a, err := ref.Member(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rec.Member(id)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%x", a.X) != fmt.Sprintf("%x", b.X) || a.T != b.T || a.Energy != b.Energy {
			t.Fatalf("member %d: recovered %+v differs from reference %+v", id, b, a)
		}
	}

	// Both fleets keep running on the same disturbances and stay in
	// lockstep; a post-recovery admission gets a fresh (non-colliding) ID.
	refReps := tickAll(ref, preTicks, preTicks+postTicks)
	recReps := tickAll(rec, preTicks, preTicks+postTicks)
	for k := range refReps {
		if refReps[k].Computes != recReps[k].Computes || refReps[k].Shed != recReps[k].Shed {
			t.Fatalf("post-recovery tick %d diverged: %+v vs %+v", k, recReps[k], refReps[k])
		}
	}
	for _, id := range ids {
		a, _ := ref.MemberTrace(id)
		b, _ := rec.MemberTrace(id)
		ab, err := EncodeTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := EncodeTrace(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("member %d: post-recovery episode not byte-identical", id)
		}
	}
	x0, _ := fleetCase(t, e, 999, 1)
	fresh, err := rec.Admit(x0)
	if err != nil {
		t.Fatal(err)
	}
	if want := ids[n-1] + 1; fresh != want {
		t.Fatalf("post-recovery admission got ID %d, want %d", fresh, want)
	}
}

// Resume refuses an already-issued member ID — the collision guard that
// keeps a corrupt or replayed-twice journal from aliasing two members.
func TestFleetResumeMemberIDCollision(t *testing.T) {
	e := accEngine(t)
	f, err := e.NewFleet(FleetConfig{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x0, ws := fleetCase(t, e, 3, 2)
	s, err := e.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartTrace(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepMany(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ResumeMember(4, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.ResumeMember(4, tr); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("ID reuse: err = %v, want ErrResumeMismatch", err)
	}
	if err := f.ResumeMember(2, tr); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("stale ID: err = %v, want ErrResumeMismatch", err)
	}
}

// The fleet hook fires once per member per tick, concurrently but
// member-keyed, and a faulted fleet under Degrade sheds optional
// computes safely: degradations are counted, safety holds, and the same
// seed degrades identically.
func TestFleetFaultsDegradeSafely(t *testing.T) {
	e := accEngine(t)
	run := func() (degraded int64, viol int, events int) {
		f, err := e.NewFleet(FleetConfig{Workers: 4, Degrade: true})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var mu sync.Mutex
		f.SetStepHook(func(member int, ev StepEvent) {
			mu.Lock()
			events++
			mu.Unlock()
		})
		inj := fault.New(23)
		inj.Enable(fault.SiteSchedCompute, 0.5)
		f.SetFaults(inj)
		ids := make([]int, 10)
		for i := range ids {
			x0, _ := fleetCase(t, e, int64(i+1), 0)
			if ids[i], err = f.Admit(x0); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 40; k++ {
			rep, err := f.Tick(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			// Injected faults on members without skip budget are loud and
			// evict; every surviving member's state stays safe.
			if rep.Violations != 0 {
				t.Fatalf("tick %d: %d violations under faults", k, rep.Violations)
			}
		}
		st := f.Stats()
		return st.Degraded, st.Violations, events
	}
	deg, viol, events := run()
	if viol != 0 {
		t.Fatalf("violations = %d, want 0", viol)
	}
	if deg == 0 {
		t.Fatal("rate-0.5 faults degraded nothing")
	}
	if events == 0 {
		t.Fatal("fleet step hook never fired")
	}
	deg2, viol2, events2 := run()
	if deg2 != deg || viol2 != viol || events2 != events {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", deg, viol, events, deg2, viol2, events2)
	}
}

// A 1ns tick deadline degrades every optional compute with chain left —
// the facade-level view of the scheduler's deadline shedding.
func TestFleetTickDeadlineDegrades(t *testing.T) {
	e := accEngine(t)
	f, err := e.NewFleet(FleetConfig{Workers: 2, TickDeadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 8; i++ {
		x0, _ := fleetCase(t, e, int64(i+1), 0)
		if _, err := f.Admit(x0); err != nil {
			t.Fatal(err)
		}
	}
	var deg int
	for k := 0; k < 5; k++ {
		rep, err := f.Tick(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violations != 0 || len(rep.Errors) != 0 {
			t.Fatalf("tick %d: violations=%d errors=%v", k, rep.Violations, rep.Errors)
		}
		deg += rep.Degraded
	}
	if deg == 0 {
		t.Fatal("expired deadline degraded nothing")
	}
}
