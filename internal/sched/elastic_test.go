package sched

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"oic/internal/budget"
	"oic/internal/fault"
)

// Regression for the degraded-accounting bug: a fault-pass degradation is
// a budget-forced safe skip and must count in Shed (and ShedBudgetMin),
// not just Degraded — TickReport documents Degraded ⊆ shed, and the
// elastic controller's ReclaimedRatio input rides on Shed being right.
func TestFaultDegradationCountsAsShed(t *testing.T) {
	inj := fault.New(1)
	inj.Enable(fault.SiteSchedCompute, 1) // every compute faults
	members := []Member{
		&fakeMember{dec: Decision{Compute: true, Budget: 5}},
		&fakeMember{dec: Decision{Compute: true, Budget: 3}},
		&fakeMember{dec: Decision{Budget: 4}}, // plain skip
	}
	s := New(Config{Faults: inj})
	st, err := s.Tick(context.Background(), members)
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded != 2 {
		t.Fatalf("Degraded = %d, want 2", st.Degraded)
	}
	if st.Shed != 2 {
		t.Fatalf("Shed = %d, want 2 (degraded ⊆ shed)", st.Shed)
	}
	if st.ShedBudgetMin != 3 {
		t.Fatalf("ShedBudgetMin = %d, want 3 (min budget among degraded sheds)", st.ShedBudgetMin)
	}
	if st.Skips != 1 || st.Computes != 2 {
		t.Fatalf("lanes = %d skips / %d computes, want 1/2 (planned lanes unchanged)",
			st.Skips, st.Computes)
	}
}

// Same regression for the deadline pass: late degradations fold into the
// shed aggregate, including the ShedBudgetMin running minimum.
func TestDeadlineDegradationCountsAsShed(t *testing.T) {
	members := []Member{
		&fakeMember{dec: Decision{Compute: true, Forced: true}},
		&fakeMember{dec: Decision{Compute: true, Budget: 2}},
		&fakeMember{dec: Decision{Compute: true, Budget: 4}},
	}
	s := New(Config{TickDeadline: 1}) // 1ns: expired before the step phase
	st, err := s.Tick(context.Background(), members)
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded != 2 || st.Shed != 2 {
		t.Fatalf("Degraded/Shed = %d/%d, want 2/2", st.Degraded, st.Shed)
	}
	if st.ShedBudgetMin != 2 {
		t.Fatalf("ShedBudgetMin = %d, want 2", st.ShedBudgetMin)
	}
}

// Degradations from both passes and the planned overflow share one shed
// aggregate: a planned shed with a lower remaining budget still wins the
// ShedBudgetMin minimum.
func TestPlannedAndDegradedShedsShareAggregate(t *testing.T) {
	inj := fault.New(3)
	inj.FailFirst(fault.SiteSchedCompute, 1) // only the first compute faults
	members := []Member{
		&fakeMember{dec: Decision{Compute: true, Budget: 6}}, // computes, then faults → degrades
		&fakeMember{dec: Decision{Compute: true, Budget: 1}}, // planned shed (budget 1 runs first... see sort)
	}
	// Budget 1: the optional queue runs lowest-budget-first, so member 1
	// computes and member 0 is shed by the plan; the injected fault then
	// degrades member 1's compute.
	s := New(Config{ComputeBudget: 1, Faults: inj})
	st, err := s.Tick(context.Background(), members)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != 2 || st.Degraded != 1 {
		t.Fatalf("Shed/Degraded = %d/%d, want 2/1", st.Shed, st.Degraded)
	}
	if st.ShedBudgetMin != 1 {
		t.Fatalf("ShedBudgetMin = %d, want 1 (degraded member's budget)", st.ShedBudgetMin)
	}
}

// TickFrom pins the unified deadline clock: a tick whose caller-side
// start already exhausted the deadline degrades optional computes even
// though the scheduler-local elapsed time is ~zero. Tick (no external
// start) must not degrade under the same generous deadline.
func TestTickFromUsesCallerClock(t *testing.T) {
	mk := func() []Member {
		return []Member{
			&fakeMember{dec: Decision{Compute: true, Forced: true}},
			&fakeMember{dec: Decision{Compute: true, Budget: 3}},
		}
	}
	s := New(Config{TickDeadline: time.Minute})
	st, err := s.TickFrom(context.Background(), mk(), time.Now().Add(-2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded != 1 || st.Shed != 1 {
		t.Fatalf("stale caller clock: Degraded/Shed = %d/%d, want 1/1", st.Degraded, st.Shed)
	}
	st, err = s.Tick(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded != 0 {
		t.Fatalf("fresh clock under 1m deadline: Degraded = %d, want 0", st.Degraded)
	}
}

// The elastic safety property, end to end at the scheduler layer: drive
// SetComputeBudget every tick from a budget.Controller fed adversarial
// margins (deep overruns included), with forced demand often above the
// budget, and verify that the plan never sheds a forced compute, whatever
// the budget trajectory does. Runs under -race in CI.
func TestElasticBudgetNeverShedsForced(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(11))
	members := make([]Member, n)
	fakes := make([]*fakeMember, n)
	for i := range members {
		m := &fakeMember{}
		fakes[i] = m
		members[i] = m
	}
	ctrl := budget.New(budget.Config{Min: 1, Max: 48, Target: 10 * time.Millisecond}, 24)
	s := New(Config{ComputeBudget: ctrl.Budget(), Workers: 4})
	overruns := 0
	for tick := 0; tick < 300; tick++ {
		for _, m := range fakes {
			f := rng.Float64() < 0.3
			m.dec = Decision{Compute: f || rng.Float64() < 0.5, Forced: f, Budget: rng.Intn(5)}
			if f {
				m.dec.Budget = 0
			}
		}
		margin := time.Duration(rng.Float64()*80-40) * time.Millisecond
		next := ctrl.Update(margin)
		s.SetComputeBudget(next)
		st, err := s.Tick(context.Background(), members)
		if err != nil {
			t.Fatal(err)
		}
		if st.Overrun > 0 {
			overruns++
		}
		for i, a := range s.Actions() {
			if fakes[i].dec.Forced && a != Compute {
				t.Fatalf("tick %d (budget %d): forced member %d got %v", tick, next, i, a)
			}
		}
	}
	if overruns == 0 {
		t.Fatal("forced demand never exceeded the budget; the property was not exercised")
	}
}
