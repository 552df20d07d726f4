package oic

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestFleetElasticConfigValidation pins NewFleet's elastic validation and
// defaulting: a margin loop needs a deadline, bounds must be ordered, the
// target must fit under the deadline, and omitted knobs take their
// documented defaults.
func TestFleetElasticConfigValidation(t *testing.T) {
	e := accEngine(t)
	bad := []FleetConfig{
		{Elastic: &ElasticConfig{MaxBudget: 32}}, // no TickDeadline
		{TickDeadline: time.Second, Elastic: &ElasticConfig{MinBudget: 64, MaxBudget: 32}},
		{TickDeadline: time.Second, Elastic: &ElasticConfig{MaxBudget: 32, TargetMargin: 2 * time.Second}},
	}
	for i, cfg := range bad {
		if _, err := e.NewFleet(cfg); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
	f, err := e.NewFleet(FleetConfig{
		ComputeBudget: 16, TickDeadline: 100 * time.Millisecond,
		Elastic: &ElasticConfig{MaxBudget: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	el := f.Config().Elastic
	if el.MinBudget != 1 || el.TargetMargin != 20*time.Millisecond {
		t.Fatalf("defaults not applied: %+v", el)
	}
	if got := f.ComputeBudget(); got != 16 {
		t.Fatalf("initial budget %d, want configured 16", got)
	}
}

// TestFleetBudgetRetuneDeterminism is the elastic determinism property:
// a fleet driven through an externally computed budget schedule (the
// controller is pure arithmetic, so identical margin sequences yield
// identical schedules — pinned in internal/budget's own tests) produces
// byte-identical member trajectories and tick accounting for every
// Workers setting. Budget is per-tick state here, retuned between ticks
// via SetComputeBudget exactly as the in-fleet loop does.
func TestFleetBudgetRetuneDeterminism(t *testing.T) {
	e := accEngine(t)
	const n, ticks = 48, 30
	schedule := make([]int, ticks)
	for k := range schedule {
		schedule[k] = 2 + (k*7)%11 // deterministic, hits 2..12
	}
	run := func(workers int) ([]string, FleetStats, []int) {
		f, err := e.NewFleet(FleetConfig{ComputeBudget: schedule[0], Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ids := make([]int, n)
		dist := make([][][]float64, n)
		for i := 0; i < n; i++ {
			x0, w := fleetCase(t, e, int64(i+1), ticks)
			if ids[i], err = f.Admit(x0); err != nil {
				t.Fatal(err)
			}
			dist[i] = w
		}
		fp := make([]string, n)
		var budgets []int
		for k := 0; k < ticks; k++ {
			f.SetComputeBudget(schedule[k])
			ws := map[int][]float64{}
			for i, id := range ids {
				ws[id] = dist[i][k]
			}
			rep, err := f.Tick(context.Background(), ws)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Budget != schedule[k] {
				t.Fatalf("tick %d ran under budget %d, want %d", k, rep.Budget, schedule[k])
			}
			if rep.Violations != 0 || len(rep.Errors) != 0 {
				t.Fatalf("tick %d: violations=%d errors=%v", k, rep.Violations, rep.Errors)
			}
			budgets = append(budgets, rep.Budget)
			for i, id := range ids {
				mi, err := f.Member(id)
				if err != nil {
					t.Fatal(err)
				}
				fp[i] += fmt.Sprintf("%x;", mi.X)
			}
		}
		return fp, f.Stats(), budgets
	}
	ref, refStats, refBudgets := run(1)
	for _, workers := range []int{3, 16} {
		fp, st, budgets := run(workers)
		for i := range fp {
			if fp[i] != ref[i] {
				t.Fatalf("workers=%d: member %d trajectory differs under retuned budgets", workers, i)
			}
		}
		for k := range budgets {
			if budgets[k] != refBudgets[k] {
				t.Fatalf("workers=%d: budget trajectory differs at tick %d", workers, k)
			}
		}
		if st.Computes != refStats.Computes || st.Skips != refStats.Skips ||
			st.Shed != refStats.Shed || st.Forced != refStats.Forced {
			t.Fatalf("workers=%d: counters differ: %+v vs %+v", workers, st, refStats)
		}
	}
	if refStats.Shed == 0 {
		t.Fatal("retuned budgets as low as 2 shed nothing; schedule not biting")
	}
}

// TestFleetElasticLoop runs the closed loop for real: a generous deadline
// so margins sit far above target, which must drive the budget up toward
// MaxBudget while every invariant holds — budget within bounds, effective
// capacity within the coupling's clamp, zero violations, and controller
// counters visible in stats.
func TestFleetElasticLoop(t *testing.T) {
	e := accEngine(t)
	const n, ticks = 32, 40
	f, err := e.NewFleet(FleetConfig{
		ComputeBudget: 4,
		MaxSessions:   64,
		TickDeadline:  time.Second, // generous: margins ≈ full deadline
		Elastic:       &ElasticConfig{MinBudget: 2, MaxBudget: 24, TargetMargin: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := make([]int, n)
	dist := make([][][]float64, n)
	for i := 0; i < n; i++ {
		x0, w := fleetCase(t, e, int64(i+1), ticks)
		if ids[i], err = f.Admit(x0); err != nil {
			t.Fatal(err)
		}
		dist[i] = w
	}
	for k := 0; k < ticks; k++ {
		ws := map[int][]float64{}
		for i, id := range ids {
			ws[id] = dist[i][k]
		}
		rep, err := f.Tick(context.Background(), ws)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violations != 0 || len(rep.Errors) != 0 {
			t.Fatalf("tick %d: violations=%d errors=%v", k, rep.Violations, rep.Errors)
		}
		if rep.NextBudget < 2 || rep.NextBudget > 24 {
			t.Fatalf("tick %d: NextBudget %d outside [2, 24]", k, rep.NextBudget)
		}
		if rep.EffectiveMaxSessions < 32 || rep.EffectiveMaxSessions > 96 {
			t.Fatalf("tick %d: EffectiveMaxSessions %d outside [½, 3/2]×64", k, rep.EffectiveMaxSessions)
		}
	}
	st := f.Stats()
	if st.Budget != 24 {
		t.Fatalf("final budget %d, want MaxBudget 24 under huge margins", st.Budget)
	}
	if st.BudgetRaises == 0 {
		t.Fatalf("no raises recorded: %+v", st)
	}
	if st.EffectiveMaxSessions == 0 {
		t.Fatal("EffectiveMaxSessions missing from elastic stats")
	}
	if f.Pressure() > 1 {
		t.Fatalf("pressure %v > 1 at MaxBudget", f.Pressure())
	}
}

// Regression for the stale-backpressure bug: a saturated lastForced used
// to survive a mass eviction, so a drained fleet kept refusing admits
// with ErrFleetOverloaded until the next tick. Eviction now decays the
// signal with the population.
func TestFleetAdmitAfterMassEviction(t *testing.T) {
	e := accEngine(t)
	f, err := e.NewFleet(FleetConfig{ComputeBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x0, _ := fleetCase(t, e, 1, 1)
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := f.Admit(x0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	f.mu.Lock()
	f.lastForced = 2 // simulate a saturated tick
	f.mu.Unlock()
	if _, err := f.Admit(x0); !errors.Is(err, ErrFleetOverloaded) {
		t.Fatalf("Admit under saturation: %v, want ErrFleetOverloaded", err)
	}
	for _, id := range ids {
		if err := f.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Admit(x0); err != nil {
		t.Fatalf("Admit after mass eviction: %v, want success (stale lastForced)", err)
	}
	if p := f.Pressure(); p >= 1 {
		t.Fatalf("Pressure() = %v after drain, want < 1", p)
	}
}

// TestFleetResumeAfterBudgetChanges is the recovery claim of the elastic
// design: budget history needs no durability because journal replay
// re-executes the *recorded* compute choices via StepWithChoice. A fleet
// whose budget was retuned mid-run resumes to a byte-identical head in a
// fresh fleet with a different (even static) budget.
func TestFleetResumeAfterBudgetChanges(t *testing.T) {
	e := accEngine(t)
	const n, ticks = 8, 24
	ref, err := e.NewFleet(FleetConfig{ComputeBudget: 6, Workers: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ids := make([]int, n)
	dist := make([][][]float64, n)
	for i := 0; i < n; i++ {
		x0, w := fleetCase(t, e, int64(200+i), ticks)
		if ids[i], err = ref.Admit(x0); err != nil {
			t.Fatal(err)
		}
		dist[i] = w
	}
	for k := 0; k < ticks; k++ {
		switch k {
		case 6:
			ref.SetComputeBudget(2) // starve mid-run
		case 12:
			ref.SetComputeBudget(0) // unlimited
		case 18:
			ref.SetComputeBudget(3)
		}
		ws := map[int][]float64{}
		for i, id := range ids {
			ws[id] = dist[i][k]
		}
		if _, err := ref.Tick(context.Background(), ws); err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
	}

	rec, err := e.NewFleet(FleetConfig{ComputeBudget: 96, Workers: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
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
		want, err := ref.Member(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.Member(id)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%x", got.X) != fmt.Sprintf("%x", want.X) || got.T != want.T {
			t.Fatalf("member %d head diverged after budget-churn resume:\n got %+v\nwant %+v", id, got, want)
		}
		if got.Skips != want.Skips || got.Runs != want.Runs || got.Forced != want.Forced {
			t.Fatalf("member %d counters diverged: got %+v want %+v", id, got, want)
		}
	}
}

// TestFleetResumeMemberElasticCapacity pins ResumeMember to the capacity
// in force, as Admit is: an elastic fleet whose effective capacity grew
// past MaxSessions resumes members up to it, and one whose capacity
// shrank refuses members beyond it.
func TestFleetResumeMemberElasticCapacity(t *testing.T) {
	e, err := NewEngine(Config{Plant: "acc", Policy: PolicyBangBang})
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.NewFleet(FleetConfig{
		MaxSessions: 4, ComputeBudget: 8, TickDeadline: time.Second, Trace: true,
		Elastic: &ElasticConfig{MaxBudget: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ws := map[int][]float64{}
	for i := 0; i < 4; i++ {
		x0, w := fleetCase(t, e, int64(i+1), 1)
		id, err := f.Admit(x0)
		if err != nil {
			t.Fatal(err)
		}
		ws[id] = w[0]
	}
	rep, err := f.Tick(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EffectiveMaxSessions != 6 {
		t.Fatalf("effective capacity %d after one tick, want 6", rep.EffectiveMaxSessions)
	}
	x0, _ := fleetCase(t, e, 5, 1)
	if _, err := f.Admit(x0); err != nil {
		t.Fatalf("Admit at size 4 under capacity 6: %v", err)
	}
	tr, err := f.MemberTrace(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ResumeMember(5, tr); err != nil {
		t.Fatalf("ResumeMember at size 5 under capacity 6: %v", err)
	}

	for id := 0; id < 4; id++ {
		if err := f.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	f.effMax = 2 // simulate a capacity that shrank below MaxSessions
	f.mu.Unlock()
	if err := f.ResumeMember(6, tr); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("ResumeMember at size 2 under capacity 2: %v, want ErrFleetFull", err)
	}
}
