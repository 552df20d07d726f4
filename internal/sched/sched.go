// Package sched implements the opportunistic fleet scheduler: the tick
// engine that lets one machine serve thousands of intermittent-control
// sessions on a fixed compute budget.
//
// The paper's cost asymmetry (DESIGN.md §5.3) is the whole premise: a full
// κ computation (warm-started RMPC) costs ~0.4 ms per step, while the
// monitor + skipping-policy decision costs microseconds. A scheduler that
// provisions every session for worst-case κ wastes exactly the processor
// time Algorithm 1 reclaims. sched schedules the *decisions* instead:
//
//  1. Decide phase — every member's cheap monitor+policy verdict runs
//     first (fanned out over the worker pool): does the member want κ this
//     tick, is it monitor-forced (x ∉ X′), and how many consecutive skips
//     can its state still absorb (the S_k budget of reach.SkipBudget)?
//  2. Plan phase — Plan assigns per-member actions against the per-tick
//     compute budget. Forced computes always run (safety is never
//     traded). Optional computes fill the remaining budget through a
//     priority queue ordered by remaining skip budget, lowest first: the
//     members closest to exhausting their S_k chain — about to become
//     forced — compute now, which flattens forced-compute storms before
//     they form. The overflow is shed: converted into guaranteed-safe
//     skips (every shed member has x ∈ X′, so Theorem 1 covers the zero
//     input regardless of what its policy wanted).
//  3. Step phase — all members advance one control period across the
//     bounded worker pool: the skip lane applies the zero input
//     (allocation-free, ~300 ns), the compute lane runs κ.
//
// Determinism: decisions and steps write to index-addressed slots and the
// plan's priority order breaks ties by member index, so a tick's actions
// and every member's trajectory are byte-identical for any worker count.
package sched

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oic/internal/fault"
)

// Decision is one member's cheap pre-step verdict: the monitor+policy
// output of Algorithm 1's lines 4–9 before any controller computation.
type Decision struct {
	// Compute reports that the member wants (policy z = 1) or needs
	// (monitor-forced) a full κ computation this tick.
	Compute bool
	// Forced reports that the monitor mandated the computation: x ∉ X′,
	// so skipping is not provably safe and the scheduler must not shed it.
	Forced bool
	// Budget is the remaining consecutive-skip budget: the largest k with
	// x ∈ S_k (0 when x ∉ S₁ = X′). Lower budgets schedule first.
	//
	// The scheduler reads Budget only for an optional compute (Compute
	// and not Forced): in the plan's priority order and shed, and in the
	// fault and deadline passes. A Skip or Forced decision's Budget is
	// never read, so a member may leave it unset and skip the S_k oracle.
	Budget int
}

// Action is the scheduler's per-member assignment for one tick.
type Action uint8

const (
	// Skip advances with the zero input because the member's policy chose
	// to; the reclaimed compute time is the paper's savings.
	Skip Action = iota
	// Compute runs the full controller κ.
	Compute
	// Shed is a budget-forced skip: the member wanted κ, but the tick's
	// compute budget was exhausted and the member's state is inside X′, so
	// the zero input is guaranteed safe (Theorem 1). Shedding is how the
	// scheduler degrades under overload without ever degrading safety.
	Shed
)

// String returns the wire label of the action.
func (a Action) String() string {
	switch a {
	case Skip:
		return "skip"
	case Compute:
		return "compute"
	case Shed:
		return "shed"
	}
	return "unknown"
}

// PlanStats aggregates one tick's plan.
type PlanStats struct {
	Skips    int // members whose policy chose the zero input
	Computes int // members assigned a full κ computation
	Forced   int // computes mandated by the monitor (subset of Computes)
	Shed     int // would-be computes converted to guaranteed-safe skips
	// Overrun counts forced computes beyond the budget: safety-mandated
	// work the scheduler executed anyway. A persistently positive overrun
	// means the fleet is oversubscribed even after shedding every optional
	// compute — the backpressure signal admission control reads.
	Overrun int
	// ShedBudgetMin is the smallest remaining skip budget among shed
	// members (0 when nothing was shed). It is the tick's safety margin:
	// every shed member can still absorb at least this many further skips.
	ShedBudgetMin int
}

// Plan assigns one Action per decision against a per-tick compute budget
// (budget ≤ 0 means unlimited) and returns the plan aggregate. acts must
// have len(dec) entries; it is fully overwritten. The assignment is
// deterministic: forced computes always run; optional computes fill the
// remaining budget lowest-skip-budget-first with ties broken by index; the
// overflow is shed. Plan never sheds a forced compute — the shed-safely
// invariant callers rely on.
func Plan(dec []Decision, budget int, acts []Action) PlanStats {
	st, _ := planInto(dec, budget, acts, nil)
	return st
}

// planInto is Plan with a reusable index scratch slice (returned grown).
func planInto(dec []Decision, budget int, acts []Action, scratch []int) (PlanStats, []int) {
	var st PlanStats
	opt := scratch[:0]
	for i, d := range dec {
		switch {
		case !d.Compute:
			acts[i] = Skip
			st.Skips++
		case d.Forced:
			acts[i] = Compute
			st.Computes++
			st.Forced++
		default:
			opt = append(opt, i)
		}
	}
	if budget > 0 && st.Forced > budget {
		st.Overrun = st.Forced - budget
	}
	// The priority queue: members nearest to exhausting their skip chain
	// compute first. The sort is stable over an index-ordered slice, so
	// equal budgets keep admission order and the plan is deterministic.
	sort.SliceStable(opt, func(a, b int) bool {
		return dec[opt[a]].Budget < dec[opt[b]].Budget
	})
	free := budget - st.Forced
	for rank, i := range opt {
		if budget <= 0 || rank < free {
			acts[i] = Compute
			st.Computes++
			continue
		}
		acts[i] = Shed
		shedOne(&st, dec[i].Budget)
	}
	return st, opt
}

// shedOne folds one safe shed into the aggregate: the Shed count and the
// running minimum of shed members' remaining skip budgets. Shared by the
// plan's budget overflow and the fault/deadline degradation passes, so a
// degraded member is accounted exactly like a planned shed.
func shedOne(st *PlanStats, budget int) {
	if st.Shed == 0 || budget < st.ShedBudgetMin {
		st.ShedBudgetMin = budget
	}
	st.Shed++
}

// Member is one schedulable closed-loop session.
type Member interface {
	// Decide classifies the member's pre-step state. It must be cheap
	// (monitor + policy, microseconds), must not mutate member state, and
	// is called concurrently with other members' Decide.
	Decide() Decision
	// Step advances the member one control period: the full controller
	// when compute is true, the guaranteed-safe zero input otherwise. The
	// scheduler only passes compute=false to members whose Decision was
	// not Forced. Steps of distinct members run concurrently.
	Step(compute bool) error
}

// Config tunes a Scheduler.
type Config struct {
	// ComputeBudget caps full κ computations per tick; ≤ 0 means
	// unlimited (every requested compute runs — no shedding).
	ComputeBudget int
	// Workers bounds the goroutine pool for the decide and step phases;
	// ≤ 0 means GOMAXPROCS. Results are independent of the choice.
	Workers int
	// Faults optionally injects synthetic solver failures at the
	// sched.compute site. An injected failure on an optional compute with
	// remaining skip budget degrades the member to a guaranteed-safe
	// shed (x ∈ X′, Theorem 1); on a forced compute — or one whose skip
	// chain is exhausted — it surfaces as that member's step error, loud.
	// The injection pass runs serially in member-index order, so a seeded
	// injector yields the same degradations every run.
	Faults *fault.Injector
	// TickDeadline bounds a tick's wall time. Once exceeded, remaining
	// *optional* computes with skip budget left degrade to safe sheds
	// instead of running κ; forced computes always run regardless —
	// the deadline trades reclaimed compute, never safety.
	TickDeadline time.Duration
}

// TickStats aggregates one executed tick.
type TickStats struct {
	Members int
	PlanStats
	Errors int // members whose Step failed (terminal κ errors)
	// Degraded counts planned computes downgraded to guaranteed-safe
	// sheds by an injected solver fault or a tick-deadline overrun.
	// Degraded members are budget-forced safe skips, so they count in
	// PlanStats.Shed (and ShedBudgetMin) exactly like planned sheds:
	// Degraded ⊆ Shed. PlanStats.Computes still reports the *planned*
	// computes; the executed count is Computes − Degraded, and the lane
	// counters sum to Members + Degraded (each degraded member appears in
	// both its planned lane and the shed lane).
	Degraded   int
	DecideTime time.Duration // wall time of the decide phase
	StepTime   time.Duration // wall time of the step phase
}

// Scheduler runs ticks over a member set, reusing its plan and result
// buffers across ticks so steady-state scheduling allocates nothing. It is
// not safe for concurrent Tick calls; callers serialize (the Fleet does).
type Scheduler struct {
	cfg     Config
	dec     []Decision
	acts    []Action
	errs    []error
	late    []bool // per-member deadline-degradation marks, index-addressed
	scratch []int
}

// New returns a scheduler with the given configuration.
func New(cfg Config) *Scheduler { return &Scheduler{cfg: cfg} }

// SetComputeBudget retunes the per-tick compute budget; it takes effect
// on the next Tick. This is the elastic-budget control input: budget is
// per-tick state, not frozen configuration.
func (s *Scheduler) SetComputeBudget(n int) { s.cfg.ComputeBudget = n }

// Tick runs one scheduling round: decide everything, plan against the
// budget, step everything. On context cancellation between phases the tick
// aborts before its step phase, leaving every member unstepped; a tick
// whose step phase started always completes it (steps are milliseconds).
// After Tick returns, Actions and Errs expose the per-member outcome until
// the next Tick.
func (s *Scheduler) Tick(ctx context.Context, members []Member) (TickStats, error) {
	return s.TickFrom(ctx, members, time.Now())
}

// TickFrom is Tick with an externally supplied tick-start timestamp: the
// deadline clock. A caller that reports a deadline margin measured from
// its own entry point (Fleet.Tick does) passes that instant here, so the
// shedding decision and the reported margin share one clock origin
// instead of disagreeing by the caller's validation/staging time.
func (s *Scheduler) TickFrom(ctx context.Context, members []Member, start time.Time) (TickStats, error) {
	n := len(members)
	s.grow(n)
	st := TickStats{Members: n}
	if err := ctx.Err(); err != nil {
		return st, err
	}

	t0 := time.Now()
	s.fanOut(n, func(i int) { s.dec[i] = members[i].Decide() })
	st.DecideTime = time.Since(t0)

	st.PlanStats, s.scratch = planInto(s.dec[:n], s.cfg.ComputeBudget, s.acts[:n], s.scratch)

	// Synthetic solver faults, applied serially in index order so the
	// seeded injector degrades the same members every run. Forced
	// computes (and optional ones with no skip chain left) fail loudly
	// via the member's error slot; safe ones shed — and a degraded
	// member is a budget-forced safe skip, so it is accounted as one.
	for i := range s.errs[:n] {
		s.errs[i] = nil
		s.late[i] = false
	}
	if s.cfg.Faults != nil {
		for i := 0; i < n; i++ {
			if s.acts[i] != Compute {
				continue
			}
			if err := s.cfg.Faults.Hit(fault.SiteSchedCompute); err != nil {
				if !s.dec[i].Forced && s.dec[i].Budget > 0 {
					s.acts[i] = Shed
					st.Degraded++
					shedOne(&st.PlanStats, s.dec[i].Budget)
				} else {
					s.errs[i] = err
				}
			}
		}
	}

	if err := ctx.Err(); err != nil {
		return st, err
	}
	t1 := time.Now()
	s.fanOut(n, func(i int) {
		if s.errs[i] != nil {
			return // failed loudly at the fault pass; never stepped
		}
		compute := s.acts[i] == Compute
		if compute && s.cfg.TickDeadline > 0 && !s.dec[i].Forced && s.dec[i].Budget > 0 &&
			time.Since(start) > s.cfg.TickDeadline {
			// Over deadline: this optional compute's skip is still
			// certified safe, so reclaim its κ time. Marked in an
			// index-addressed slot; the serial pass below folds the
			// marks into the shed aggregate.
			s.acts[i] = Shed
			compute = false
			s.late[i] = true
		}
		s.errs[i] = members[i].Step(compute)
	})
	st.StepTime = time.Since(t1)
	for i := 0; i < n; i++ {
		if s.late[i] {
			st.Degraded++
			shedOne(&st.PlanStats, s.dec[i].Budget)
		}
		if s.errs[i] != nil {
			st.Errors++
		}
	}
	return st, nil
}

// Actions returns the last tick's per-member plan, aligned to the member
// slice Tick received. Valid until the next Tick.
func (s *Scheduler) Actions() []Action { return s.acts }

// Errs returns the last tick's per-member step errors (nil entries for
// successful steps), aligned to the member slice. Valid until the next
// Tick.
func (s *Scheduler) Errs() []error { return s.errs }

func (s *Scheduler) grow(n int) {
	if cap(s.dec) < n {
		s.dec = make([]Decision, n)
		s.acts = make([]Action, n)
		s.errs = make([]error, n)
		s.late = make([]bool, n)
	}
	s.dec = s.dec[:n]
	s.acts = s.acts[:n]
	s.errs = s.errs[:n]
	s.late = s.late[:n]
}

func (s *Scheduler) fanOut(n int, fn func(int)) { FanOut(n, s.cfg.Workers, fn) }

// FanOut applies fn to every index in [0, n) across a bounded worker pool
// (workers ≤ 0 means GOMAXPROCS). Work is claimed through an atomic cursor
// and results belong in index-addressed slots, so the outcome is
// independent of worker count and interleaving. Shared by the scheduler's
// decide/step phases and pkg/oic's StepBatch.
func FanOut(n, workers int, fn func(int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
