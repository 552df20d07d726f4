package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"oic/internal/fault"
)

func TestPlanAllSkip(t *testing.T) {
	dec := []Decision{{}, {}, {}}
	acts := make([]Action, len(dec))
	st := Plan(dec, 1, acts)
	if st.Skips != 3 || st.Computes != 0 || st.Shed != 0 || st.Overrun != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	for i, a := range acts {
		if a != Skip {
			t.Fatalf("acts[%d] = %v, want Skip", i, a)
		}
	}
}

func TestPlanForcedNeverShed(t *testing.T) {
	// Five forced computes against a budget of 2: all must run, overrun 3.
	dec := make([]Decision, 5)
	for i := range dec {
		dec[i] = Decision{Compute: true, Forced: true}
	}
	acts := make([]Action, len(dec))
	st := Plan(dec, 2, acts)
	if st.Computes != 5 || st.Forced != 5 || st.Shed != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.Overrun != 3 {
		t.Fatalf("Overrun = %d, want 3", st.Overrun)
	}
	for i, a := range acts {
		if a != Compute {
			t.Fatalf("acts[%d] = %v, want Compute (forced computes are never shed)", i, a)
		}
	}
}

func TestPlanPriorityByBudget(t *testing.T) {
	// Budget 2, one forced + four optional computes with budgets 5,1,3,1:
	// the forced one takes a slot, the budget-1 member at the lowest index
	// takes the other; the rest shed (richest last to be scheduled).
	dec := []Decision{
		{Compute: true, Forced: true, Budget: 0}, // slot 1 (mandatory)
		{Compute: true, Budget: 5},
		{Compute: true, Budget: 1}, // slot 2 (lowest budget, first index)
		{Compute: true, Budget: 3},
		{Compute: true, Budget: 1}, // tie: higher index → shed
	}
	acts := make([]Action, len(dec))
	st := Plan(dec, 2, acts)
	want := []Action{Compute, Shed, Compute, Shed, Shed}
	if !reflect.DeepEqual(acts, want) {
		t.Fatalf("acts = %v, want %v", acts, want)
	}
	if st.Computes != 2 || st.Forced != 1 || st.Shed != 3 || st.Overrun != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.ShedBudgetMin != 1 {
		t.Fatalf("ShedBudgetMin = %d, want 1", st.ShedBudgetMin)
	}
}

func TestPlanUnlimitedBudget(t *testing.T) {
	dec := []Decision{
		{Compute: true, Budget: 4},
		{},
		{Compute: true, Forced: true},
	}
	acts := make([]Action, len(dec))
	st := Plan(dec, 0, acts)
	if st.Computes != 2 || st.Skips != 1 || st.Shed != 0 || st.Overrun != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	want := []Action{Compute, Skip, Compute}
	if !reflect.DeepEqual(acts, want) {
		t.Fatalf("acts = %v, want %v", acts, want)
	}
}

func TestPlanShedSafelyInvariant(t *testing.T) {
	// Property: across random decision vectors and budgets, (a) no forced
	// compute is ever shed, (b) computes never exceed max(budget, forced),
	// (c) every shed member wanted a compute and was not forced.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		dec := make([]Decision, n)
		for i := range dec {
			c := rng.Intn(3) // 0 skip, 1 optional, 2 forced
			dec[i] = Decision{Compute: c > 0, Forced: c == 2, Budget: rng.Intn(6)}
		}
		budget := rng.Intn(8) // 0 = unlimited
		acts := make([]Action, n)
		st := Plan(dec, budget, acts)
		computes := 0
		for i, a := range acts {
			switch a {
			case Compute:
				computes++
			case Shed:
				if !dec[i].Compute || dec[i].Forced {
					t.Fatalf("trial %d: shed member %d had decision %+v", trial, i, dec[i])
				}
			case Skip:
				if dec[i].Compute {
					t.Fatalf("trial %d: member %d wanted compute but got Skip", trial, i)
				}
			}
		}
		if computes != st.Computes {
			t.Fatalf("trial %d: %d computes in acts, stats say %d", trial, computes, st.Computes)
		}
		if budget > 0 {
			max := budget
			if st.Forced > max {
				max = st.Forced
			}
			if computes > max {
				t.Fatalf("trial %d: %d computes exceed max(budget %d, forced %d)", trial, computes, budget, st.Forced)
			}
		}
	}
}

// fakeMember records how it was stepped; Decide is pure.
type fakeMember struct {
	dec     Decision
	mu      sync.Mutex
	history []Action
	fail    error
}

func (m *fakeMember) Decide() Decision { return m.dec }

func (m *fakeMember) Step(compute bool) error {
	a := Skip
	if compute {
		a = Compute
	}
	m.mu.Lock()
	m.history = append(m.history, a)
	m.mu.Unlock()
	return m.fail
}

func TestTickDeterministicAcrossWorkers(t *testing.T) {
	build := func() []Member {
		rng := rand.New(rand.NewSource(9))
		ms := make([]Member, 200)
		for i := range ms {
			c := rng.Intn(3)
			ms[i] = &fakeMember{dec: Decision{Compute: c > 0, Forced: c == 2, Budget: rng.Intn(5)}}
		}
		return ms
	}
	var ref []Action
	for _, workers := range []int{1, 3, 16} {
		ms := build()
		s := New(Config{ComputeBudget: 20, Workers: workers})
		st, err := s.Tick(context.Background(), ms)
		if err != nil {
			t.Fatal(err)
		}
		if st.Members != 200 {
			t.Fatalf("Members = %d", st.Members)
		}
		acts := append([]Action(nil), s.Actions()...)
		if ref == nil {
			ref = acts
			continue
		}
		if !reflect.DeepEqual(acts, ref) {
			t.Fatalf("workers=%d: actions differ from workers=1 plan", workers)
		}
	}
}

func TestTickStepMatchesPlan(t *testing.T) {
	ms := []Member{
		&fakeMember{dec: Decision{}},                            // skip
		&fakeMember{dec: Decision{Compute: true, Forced: true}}, // forced compute
		&fakeMember{dec: Decision{Compute: true, Budget: 3}},    // shed (budget 1 taken by forced)
	}
	s := New(Config{ComputeBudget: 1, Workers: 2})
	st, err := s.Tick(context.Background(), ms)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skips != 1 || st.Computes != 1 || st.Shed != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	wantStep := []Action{Skip, Compute, Skip} // shed steps as a skip
	for i, m := range ms {
		fm := m.(*fakeMember)
		if len(fm.history) != 1 || fm.history[0] != wantStep[i] {
			t.Fatalf("member %d stepped %v, want [%v]", i, fm.history, wantStep[i])
		}
	}
}

func TestTickCollectsErrors(t *testing.T) {
	boom := errors.New("kappa failed")
	ms := []Member{
		&fakeMember{dec: Decision{Compute: true, Forced: true}, fail: boom},
		&fakeMember{dec: Decision{}},
	}
	s := New(Config{})
	st, err := s.Tick(context.Background(), ms)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}
	if got := s.Errs(); got[0] != boom || got[1] != nil {
		t.Fatalf("Errs() = %v", got)
	}
}

func TestTickCanceledContextStepsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms := []Member{&fakeMember{dec: Decision{Compute: true}}}
	s := New(Config{})
	if _, err := s.Tick(ctx, ms); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if h := ms[0].(*fakeMember).history; len(h) != 0 {
		t.Fatalf("member stepped %v on canceled tick", h)
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{Skip: "skip", Compute: "compute", Shed: "shed", Action(9): "unknown"} {
		if got := a.String(); got != want {
			t.Fatalf("Action(%d).String() = %q, want %q", a, got, want)
		}
	}
}

// TestSchedulerReuseNoGrowth pins the steady-state property: repeated
// ticks over the same fleet size reuse the scheduler's buffers.
func TestSchedulerReuseNoGrowth(t *testing.T) {
	ms := make([]Member, 64)
	for i := range ms {
		ms[i] = &fakeMember{dec: Decision{Compute: i%2 == 0, Budget: i % 4}}
	}
	s := New(Config{ComputeBudget: 8, Workers: 1})
	for tick := 0; tick < 3; tick++ {
		if _, err := s.Tick(context.Background(), ms); err != nil {
			t.Fatal(err)
		}
	}
	first := fmt.Sprintf("%p %p", &s.dec[0], &s.acts[0])
	if _, err := s.Tick(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%p %p", &s.dec[0], &s.acts[0]); got != first {
		t.Fatalf("buffers reallocated across same-size ticks: %s → %s", first, got)
	}
}

// TestBudgetReadOnlyForOptionalComputes pins Decision.Budget's contract:
// the scheduler reads it only for optional computes. The same members tick
// twice under a seeded fault injector and an armed tick deadline, once
// with every Skip and Forced decision's Budget poisoned (-1 or
// math.MaxInt) and once with it 0; the actions, the plan and tick
// aggregates (ShedBudgetMin included), the errors and each member's steps
// must agree.
func TestBudgetReadOnlyForOptionalComputes(t *testing.T) {
	build := func(poison bool) []Member {
		rng := rand.New(rand.NewSource(31))
		ms := make([]Member, 300)
		for i := range ms {
			c := rng.Intn(3)
			d := Decision{Compute: c > 0, Forced: c == 2, Budget: rng.Intn(5)}
			bad := []int{-1, math.MaxInt}[rng.Intn(2)]
			if !d.Compute || d.Forced {
				d.Budget = 0
				if poison {
					d.Budget = bad
				}
			}
			ms[i] = &fakeMember{dec: d}
		}
		return ms
	}
	type outcome struct {
		acts    []Action
		st      TickStats
		errs    []string
		history [][]Action
	}
	run := func(poison bool, deadline time.Duration, start time.Time) outcome {
		inj := fault.New(5)
		inj.Enable(fault.SiteSchedCompute, 0.3)
		ms := build(poison)
		s := New(Config{ComputeBudget: 140, Workers: 3, Faults: inj, TickDeadline: deadline})
		st, err := s.TickFrom(context.Background(), ms, start)
		if err != nil {
			t.Fatal(err)
		}
		st.DecideTime, st.StepTime = 0, 0
		o := outcome{acts: append([]Action(nil), s.Actions()...), st: st}
		for i, e := range s.Errs() {
			msg := ""
			if e != nil {
				msg = e.Error()
			}
			o.errs = append(o.errs, msg)
			o.history = append(o.history, ms[i].(*fakeMember).history)
		}
		return o
	}
	for _, c := range []struct {
		name     string
		deadline time.Duration
		start    time.Time
	}{
		// Long past: every optional compute that reaches the step phase
		// with budget left sheds at the deadline check.
		{"deadline passed", time.Millisecond, time.Now().Add(-time.Hour)},
		// Far off: only the fault pass and the plan shed.
		{"deadline ahead", time.Hour, time.Now()},
	} {
		poisoned, clean := run(true, c.deadline, c.start), run(false, c.deadline, c.start)
		if !reflect.DeepEqual(poisoned, clean) {
			t.Fatalf("%s: a Skip or Forced decision's Budget changed the tick:\npoisoned %+v\nclean    %+v", c.name, poisoned.st, clean.st)
		}
		st := clean.st
		if st.Shed == 0 || st.Degraded == 0 || st.Errors == 0 || st.Forced == 0 || st.Skips == 0 {
			t.Fatalf("%s: the tick does not reach every Budget read: %+v", c.name, st)
		}
	}
}
