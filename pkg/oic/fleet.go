package oic

import (
	"context"
	"fmt"
	"sync"
	"time"

	"oic/internal/budget"
	"oic/internal/core"
	"oic/internal/fault"
	"oic/internal/mat"
	"oic/internal/reach"
	"oic/internal/sched"
	"oic/internal/trace"
)

// FleetConfig tunes a Fleet.
type FleetConfig struct {
	// ComputeBudget caps full κ computations per tick; ≤ 0 means
	// unlimited (no shedding — the fleet behaves like StepBatch).
	ComputeBudget int `json:"compute_budget,omitempty"`
	// Workers bounds the goroutine pool for the decide and step phases;
	// ≤ 0 means GOMAXPROCS. Per-session results are byte-identical for
	// every choice.
	Workers int `json:"workers,omitempty"`
	// MaxSessions is the admission-control capacity; ≤ 0 means 4096.
	MaxSessions int `json:"max_sessions,omitempty"`
	// Trace records every member's episode from admission (MemberTrace
	// reads it back). Costs one bounded append per member step when on;
	// a single nil check when off.
	Trace bool `json:"trace,omitempty"`
	// TraceLimit caps recorded steps per member; once reached the member
	// keeps stepping but its recording stops growing (the trace stays a
	// complete prefix of the episode). ≤ 0 means unlimited.
	TraceLimit int `json:"trace_limit,omitempty"`
	// Degrade enables graceful degradation on member sessions: a κ failure
	// at a state the monitor did not force (x ∈ X′, so the zero-input skip
	// is certified by Theorem 1) downgrades to that skip instead of
	// evicting the member. Forced-compute failures stay terminal.
	Degrade bool `json:"degrade,omitempty"`
	// TickDeadline bounds one tick's wall time: past it, still-pending
	// optional computes with skip budget left shed into safe skips
	// (counted in TickReport.Degraded). 0 means no deadline.
	TickDeadline time.Duration `json:"tick_deadline_ns,omitempty"`
	// Elastic turns the compute budget into a control variable: after
	// every tick a deterministic PI controller (internal/budget,
	// DESIGN.md §13) retunes the budget from the measured DeadlineMargin,
	// and admission capacity scales with reclaimed ratio and pressure.
	// Requires TickDeadline > 0 (the margin is the loop's input). Nil
	// keeps the budget static.
	Elastic *ElasticConfig `json:"elastic,omitempty"`
}

// ElasticConfig bounds the elastic-budget controller of FleetConfig.
type ElasticConfig struct {
	// MinBudget and MaxBudget bound the per-tick compute budget the
	// controller may set. MinBudget ≤ 0 defaults to 1; MaxBudget must be
	// ≥ MinBudget. The forced-compute floor may exceed MaxBudget
	// transiently — safety outranks the cap.
	MinBudget int `json:"min_budget,omitempty"`
	MaxBudget int `json:"max_budget"`
	// TargetMargin is the deadline margin the controller regulates to;
	// ≤ 0 defaults to TickDeadline/5.
	TargetMargin time.Duration `json:"target_margin_ns,omitempty"`
}

// DefaultFleetSessions is the MaxSessions default.
const DefaultFleetSessions = 4096

// Fleet multiplexes many pooled sessions of one engine over a bounded
// worker pool against a per-tick compute budget — the opportunistic fleet
// scheduler (DESIGN.md §7). Each Tick runs every member's cheap
// monitor+policy decision first, then executes the near-free skip lane and
// a budget-bounded compute lane planned by internal/sched: forced
// computations always run, optional ones fill the budget in order of
// remaining skip budget (most urgent first), and the overflow is shed into
// guaranteed-safe skips.
//
// A Fleet serializes its own method calls with an internal mutex;
// parallelism lives inside Tick. Member trajectories are deterministic:
// byte-identical across Workers settings for a fixed admission/disturbance
// history and budget.
type Fleet struct {
	mu   sync.Mutex
	eng  *Engine
	cfg  FleetConfig
	sb   *reach.SkipBudget
	sch  *sched.Scheduler
	zero mat.Vec // shared all-zero disturbance template

	members []*fleetMember // admission order (ascending ID)
	roster  []sched.Member // cached adapter view of members, same order
	byID    map[int]int    // member ID → index into members
	nextID  int
	closed  bool

	hook func(member int, ev StepEvent) // write-ahead journaling hook; nil unless SetStepHook

	// budget is the live per-tick compute budget — per-tick state, not
	// frozen config. Static fleets keep it at cfg.ComputeBudget; elastic
	// fleets retune it every tick (and SetComputeBudget retunes either).
	budget int
	ctrl   *budget.Controller // elastic loop; nil unless cfg.Elastic
	effMax int                // elastic admission capacity; cfg.MaxSessions when static

	lastForced  int // backpressure signal: forced computes last tick
	tickTime    time.Duration
	budgetTicks int64 // Σ per-tick budgets across ticks (utilization denominator)
	violBase    int   // violations carried over from evicted members
	stats       FleetStats
}

// fleetMember adapts one core session to sched.Member. The staged
// disturbance w is written by Tick before scheduling and read by Step.
type fleetMember struct {
	f   *Fleet
	id  int
	cs  *core.Session
	w   mat.Vec         // owned buffer, re-staged every tick
	rec *trace.Recorder // per-member episode recording; nil unless FleetConfig.Trace
}

// Decide implements sched.Member: the monitor level, the policy verdict
// (consulted exactly as often as the plain session path would), and the
// remaining S_k budget.
func (m *fleetMember) Decide() sched.Decision {
	e := m.f.eng
	x := m.cs.StateView()
	forced := e.fw.Monitor().Level(x) != core.InXPrime
	compute := forced || e.fw.Policy.Decide(m.cs.Time(), x, m.cs.RecentWView())
	return sched.Decision{Compute: compute, Forced: forced, Budget: m.f.sb.Remaining(x)}
}

// Step implements sched.Member. The monitor inside the core session still
// overrides a skip whenever x ∉ X′, so even a (never planned) mis-shed
// could not break Theorem 1.
func (m *fleetMember) Step(compute bool) error {
	st, err := m.cs.StepWithChoice(m.w, compute)
	if err != nil {
		return err
	}
	if m.rec != nil && !m.rec.Full() {
		_ = m.rec.Append(st)
	}
	if h := m.f.hook; h != nil {
		// Safe to read without the fleet lock: SetStepHook takes f.mu and
		// Step only runs inside Tick, which holds it. The hook itself must
		// be safe for concurrent calls — the step lane is parallel.
		h(m.id, st)
	}
	return nil
}

// NewFleet creates an empty fleet over the engine. The S_k skip-budget
// chain is compiled on first fleet creation and shared engine-wide.
func (e *Engine) NewFleet(cfg FleetConfig) (*Fleet, error) {
	sb, err := e.skipBudgetOracle()
	if err != nil {
		return nil, fmt.Errorf("oic: NewFleet: %w", err)
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultFleetSessions
	}
	var ctrl *budget.Controller
	if el := cfg.Elastic; el != nil {
		if cfg.TickDeadline <= 0 {
			return nil, fmt.Errorf("oic: NewFleet: %w: Elastic requires TickDeadline > 0", ErrBadConfig)
		}
		norm := *el
		if norm.MinBudget <= 0 {
			norm.MinBudget = 1
		}
		if norm.MaxBudget < norm.MinBudget {
			return nil, fmt.Errorf("oic: NewFleet: %w: Elastic.MaxBudget %d < MinBudget %d",
				ErrBadConfig, norm.MaxBudget, norm.MinBudget)
		}
		if norm.TargetMargin <= 0 {
			norm.TargetMargin = cfg.TickDeadline / 5
		}
		if norm.TargetMargin >= cfg.TickDeadline {
			return nil, fmt.Errorf("oic: NewFleet: %w: Elastic.TargetMargin %v ≥ TickDeadline %v",
				ErrBadConfig, norm.TargetMargin, cfg.TickDeadline)
		}
		cfg.Elastic = &norm
		initial := cfg.ComputeBudget
		if initial <= 0 {
			initial = norm.MaxBudget // unlimited makes no sense elastically: start wide open
		}
		ctrl = budget.New(budget.Config{
			Min: norm.MinBudget, Max: norm.MaxBudget, Target: norm.TargetMargin,
		}, initial)
	}
	f := &Fleet{
		eng:    e,
		cfg:    cfg,
		sb:     sb,
		ctrl:   ctrl,
		budget: cfg.ComputeBudget,
		effMax: cfg.MaxSessions,
		zero:   make(mat.Vec, e.NX()),
		byID:   map[int]int{},
	}
	if ctrl != nil {
		f.budget = ctrl.Budget()
	}
	f.sch = sched.New(sched.Config{
		ComputeBudget: f.budget,
		Workers:       cfg.Workers,
		TickDeadline:  cfg.TickDeadline,
	})
	return f, nil
}

// SetComputeBudget retunes the per-tick compute budget; it applies from
// the next Tick. On an elastic fleet the controller re-seeds at the new
// value (clamped into [MinBudget, MaxBudget]) and keeps regulating from
// there — the out-of-band override an operator or autoscaler uses.
func (f *Fleet) SetComputeBudget(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ctrl != nil {
		f.ctrl.Set(n)
		n = f.ctrl.Budget()
	}
	f.budget = n
	f.sch.SetComputeBudget(n)
}

// ComputeBudget returns the live per-tick compute budget.
func (f *Fleet) ComputeBudget() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.budget
}

// SetFaults installs (or clears, with nil) a deterministic fault injector
// on the fleet's scheduler — the chaos-testing entry point. Faults fire at
// the compute-dispatch site; with FleetConfig.Degrade semantics, optional
// computes with skip budget shed safely while forced ones fail loud.
func (f *Fleet) SetFaults(inj *fault.Injector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sch = sched.New(sched.Config{
		ComputeBudget: f.budget, // carry the live (possibly retuned) budget
		Workers:       f.cfg.Workers,
		TickDeadline:  f.cfg.TickDeadline,
		Faults:        inj,
	})
}

// Config returns the fleet's configuration (defaults applied).
func (f *Fleet) Config() FleetConfig { return f.cfg }

// Admit opens a new member session at x0 (which must lie inside XI) and
// returns its fleet-unique ID. Admission control rejects with
// ErrFleetFull at capacity and with ErrFleetOverloaded while the last
// tick's forced computations saturate the compute budget — the
// backpressure signal that keeps an oversubscribed fleet from accreting
// sessions it can only serve by overrunning its budget.
func (f *Fleet) Admit(x0 []float64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrFleetClosed
	}
	if len(f.members) >= f.capLocked() {
		f.stats.Rejected++
		return 0, ErrFleetFull
	}
	if f.budget > 0 && f.lastForced >= f.budget {
		f.stats.Rejected++
		return 0, ErrFleetOverloaded
	}
	cs, err := f.eng.acquireCore(x0)
	if err != nil {
		f.stats.Rejected++
		return 0, err
	}
	id := f.nextID
	f.nextID++
	if f.cfg.Degrade {
		cs.SetDegrade(true)
	}
	m := &fleetMember{f: f, id: id, cs: cs, w: make(mat.Vec, f.eng.NX())}
	if f.cfg.Trace {
		m.rec = trace.NewRecorder(f.eng.traceMeta(), x0, f.eng.NU(), f.cfg.TraceLimit)
	}
	f.byID[id] = len(f.members)
	f.members = append(f.members, m)
	f.roster = append(f.roster, m)
	f.stats.Admitted++
	return id, nil
}

// Evict closes the member and recycles its workspace.
func (f *Fleet) Evict(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrFleetClosed
	}
	idx, ok := f.byID[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownMember, id)
	}
	f.removeLocked(idx)
	f.stats.Evicted++
	return nil
}

// capLocked is the admission capacity in force: the elastic effective
// MaxSessions when a controller runs, the configured cap otherwise.
func (f *Fleet) capLocked() int {
	if f.ctrl != nil {
		return f.effMax
	}
	return f.cfg.MaxSessions
}

// removeLocked releases the member at idx and compacts the roster,
// preserving admission order.
func (f *Fleet) removeLocked(idx int) {
	m := f.members[idx]
	f.violBase += m.cs.Result.ViolationsX
	f.eng.releaseCore(m.cs)
	delete(f.byID, m.id)
	f.members = append(f.members[:idx], f.members[idx+1:]...)
	f.roster = append(f.roster[:idx], f.roster[idx+1:]...)
	for i := idx; i < len(f.members); i++ {
		f.byID[f.members[i].id] = i
	}
	// Decay the backpressure signal with the population: lastForced is a
	// per-tick census, and forced computes cannot outnumber members, so a
	// mass eviction must not leave a drained fleet refusing admits on a
	// stale saturation reading until the next tick.
	if f.lastForced > len(f.members) {
		f.lastForced = len(f.members)
	}
}

// FleetStepError is one member's terminal step failure within a tick.
type FleetStepError struct {
	ID    int    `json:"id"`
	Error string `json:"error"`
}

// TickReport is the wire form of one executed fleet tick. The lane
// counters (Skips/Computes/Forced/Shed) count *scheduled* work: a member
// whose κ fails terminally mid-step still appears in its lane — the
// computation was attempted and its cost paid — and additionally in
// Errors.
type TickReport struct {
	Tick     int `json:"tick"`     // 0-based tick index
	Sessions int `json:"sessions"` // members scheduled this tick
	Budget   int `json:"compute_budget,omitempty"`

	Skips    int `json:"skips"`              // policy-chosen zero-input steps
	Computes int `json:"computes"`           // full κ computations run (incl. any that failed, see Errors)
	Forced   int `json:"forced"`             // monitor-mandated computes (⊆ computes)
	Shed     int `json:"shed"`               // would-be computes converted to safe skips
	Overrun  int `json:"overrun"`            // forced computes beyond the budget
	Degraded int `json:"degraded,omitempty"` // computes shed by fault or deadline degradation (⊆ shed)

	// Utilization is computes / budget (0 when the budget is unlimited);
	// > 1 reports a forced overrun.
	Utilization float64 `json:"utilization"`
	// ReclaimedRatio is (skips + shed) / sessions: the fraction of the
	// fleet's worst-case κ provisioning this tick handed back — the
	// system-level form of the paper's compute savings.
	ReclaimedRatio float64 `json:"reclaimed_ratio"`
	// ShedBudgetMin is the smallest remaining skip budget among shed
	// members (0 when nothing was shed): the tick's safety headroom.
	ShedBudgetMin int `json:"shed_budget_min,omitempty"`

	// Violations is the fleet-cumulative count of states outside X
	// (Theorem 1: stays 0).
	Violations int `json:"violations"`
	// Errors lists members whose step failed terminally; they were
	// evicted from the fleet before Tick returned.
	Errors []FleetStepError `json:"errors,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns"` // wall time of the whole tick
	// DeadlineMargin is TickDeadline − Elapsed for deadline-bearing fleets
	// (zero when no deadline is configured). Negative means the tick
	// overran — the raw signal the elastic-budget controller regulates on.
	DeadlineMargin time.Duration `json:"deadline_margin_ns,omitempty"`

	// NextBudget is the compute budget the elastic controller set for the
	// next tick; zero on static fleets (Budget reports the budget this
	// tick ran under).
	NextBudget int `json:"next_budget,omitempty"`
	// EffectiveMaxSessions is the elastic admission capacity after this
	// tick (budget.Sessions coupling); zero on static fleets.
	EffectiveMaxSessions int `json:"effective_max_sessions,omitempty"`
}

// Tick advances every member one control period. ws carries this tick's
// measured disturbance per member ID; omitted members (and a nil map) get
// the zero disturbance. A wrong-length disturbance or an unknown ID fails
// the whole tick before anything steps. On context cancellation the tick
// aborts without stepping any member.
//
// Members whose step fails terminally (a κ error — unreachable from
// inside XI, but defended against) are reported in TickReport.Errors and
// evicted; every other member's step is unaffected.
func (f *Fleet) Tick(ctx context.Context, ws map[int][]float64) (TickReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return TickReport{}, ErrFleetClosed
	}
	start := time.Now()

	// Validate before staging so a bad request leaves the fleet unstepped.
	for id, w := range ws {
		if _, ok := f.byID[id]; !ok {
			return TickReport{}, fmt.Errorf("%w: %d", ErrUnknownMember, id)
		}
		if w != nil && len(w) != f.eng.NX() {
			return TickReport{}, fmt.Errorf("%w: w[%d] has dim %d, want %d",
				ErrBadDimension, id, len(w), f.eng.NX())
		}
	}
	for _, m := range f.members {
		copy(m.w, f.zero)
	}
	for id, w := range ws {
		if w != nil {
			copy(f.members[f.byID[id]].w, w)
		}
	}

	// TickFrom shares this tick's start with the scheduler so the shedding
	// deadline and the reported DeadlineMargin use one clock origin.
	st, err := f.sch.TickFrom(ctx, f.roster, start)
	if err != nil {
		return TickReport{}, err
	}

	rep := TickReport{
		Tick:     f.stats.Ticks,
		Sessions: st.Members,
		Budget:   f.budget,
		Skips:    st.Skips, Computes: st.Computes, Forced: st.Forced,
		Shed: st.Shed, Overrun: st.Overrun, Degraded: st.Degraded,
		ShedBudgetMin: st.ShedBudgetMin,
	}
	if f.budget > 0 {
		rep.Utilization = float64(st.Computes) / float64(f.budget)
	}
	if st.Members > 0 {
		rep.ReclaimedRatio = float64(st.Skips+st.Shed) / float64(st.Members)
	}

	// Evict members whose step failed terminally, in index order so the
	// outcome is deterministic.
	if st.Errors > 0 {
		errs := f.sch.Errs()
		for i := len(f.members) - 1; i >= 0; i-- {
			if errs[i] == nil {
				continue
			}
			rep.Errors = append(rep.Errors, FleetStepError{ID: f.members[i].id, Error: errs[i].Error()})
			f.removeLocked(i)
			f.stats.Evicted++
		}
		// Reverse to ascending-ID order (built walking indices downward).
		for l, r := 0, len(rep.Errors)-1; l < r; l, r = l+1, r-1 {
			rep.Errors[l], rep.Errors[r] = rep.Errors[r], rep.Errors[l]
		}
	}
	rep.Violations = f.violationsLocked()

	f.lastForced = st.Forced
	if f.budget > 0 {
		f.budgetTicks += int64(f.budget)
	}
	f.stats.Ticks++
	f.stats.Steps += int64(st.Members)
	f.stats.Skips += int64(st.Skips)
	f.stats.Computes += int64(st.Computes)
	f.stats.Forced += int64(st.Forced)
	f.stats.Shed += int64(st.Shed)
	f.stats.Overrun += int64(st.Overrun)
	f.stats.Degraded += int64(st.Degraded)
	rep.Elapsed = time.Since(start)
	if f.cfg.TickDeadline > 0 {
		rep.DeadlineMargin = f.cfg.TickDeadline - rep.Elapsed
	}
	f.tickTime += rep.Elapsed

	// The elastic loop closes here: the tick's measured margin and forced
	// demand feed the PI controller, whose output becomes the next tick's
	// budget; the admission side scales capacity from the same evidence.
	if f.ctrl != nil {
		next := f.ctrl.Update(budget.Input{Margin: rep.DeadlineMargin, Forced: st.Forced})
		f.budget = next
		f.sch.SetComputeBudget(next)
		rep.NextBudget = next
		pressure := 0.0
		if next > 0 {
			pressure = float64(st.Forced) / float64(next)
		}
		f.effMax = budget.Sessions(f.cfg.MaxSessions, rep.ReclaimedRatio, pressure)
		rep.EffectiveMaxSessions = f.effMax
	}
	return rep, nil
}

func (f *Fleet) violationsLocked() int {
	v := f.violBase
	for _, m := range f.members {
		v += m.cs.Result.ViolationsX
	}
	return v
}

// Pressure returns the backpressure signal admission control uses: the
// fraction of the compute budget the last tick's monitor-forced
// computations consumed (0 with an unlimited budget; ≥ 1 means saturated
// and Admit is rejecting).
func (f *Fleet) Pressure() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.budget <= 0 {
		return 0
	}
	return float64(f.lastForced) / float64(f.budget)
}

// Size returns the number of live members.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// IDs returns the live member IDs in admission (ascending) order.
func (f *Fleet) IDs() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, len(f.members))
	for i, m := range f.members {
		out[i] = m.id
	}
	return out
}

// FleetMemberInfo is a wire snapshot of one fleet member.
type FleetMemberInfo struct {
	ID         int       `json:"id"`
	T          int       `json:"t"`
	X          []float64 `json:"x"`
	Level      string    `json:"level"`
	SkipBudget int       `json:"skip_budget"` // largest k with x ∈ S_k
	Skips      int       `json:"skips"`
	Runs       int       `json:"runs"`
	Forced     int       `json:"forced"`
	Violations int       `json:"violations"`
	Degraded   int       `json:"degraded,omitempty"` // κ failures downgraded to certified skips
	Energy     float64   `json:"energy"`
}

// MemberTrace materializes the recorded episode of one member (from its
// admission to its latest tick). It returns ErrNotTracing unless the
// fleet was created with FleetConfig.Trace; an evicted member's recording
// is dropped with it.
func (f *Fleet) MemberTrace(id int) (*Trace, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrFleetClosed
	}
	idx, ok := f.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownMember, id)
	}
	if f.members[idx].rec == nil {
		return nil, ErrNotTracing
	}
	return f.members[idx].rec.Trace(), nil
}

// Member returns a snapshot of the member with the given ID.
func (f *Fleet) Member(id int) (FleetMemberInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return FleetMemberInfo{}, ErrFleetClosed
	}
	idx, ok := f.byID[id]
	if !ok {
		return FleetMemberInfo{}, fmt.Errorf("%w: %d", ErrUnknownMember, id)
	}
	m := f.members[idx]
	x := m.cs.StateView()
	res := m.cs.Result
	return FleetMemberInfo{
		ID: id, T: m.cs.Time(),
		X:          append([]float64(nil), x...),
		Level:      f.eng.fw.Monitor().Level(x).String(),
		SkipBudget: f.sb.Remaining(x),
		Skips:      res.Skips, Runs: res.Runs, Forced: res.Forced,
		Violations: res.ViolationsX,
		Degraded:   res.Degraded,
		Energy:     res.Energy,
	}, nil
}

// FleetStats is the fleet's cumulative wire snapshot.
type FleetStats struct {
	Plant       string `json:"plant"`
	Scenario    string `json:"scenario"`
	Policy      string `json:"policy"`
	Sessions    int    `json:"sessions"`
	MaxSessions int    `json:"max_sessions"`
	// Budget is the live per-tick compute budget: the configured value on
	// a static fleet, the controller's current output on an elastic one.
	Budget  int `json:"compute_budget,omitempty"`
	Workers int `json:"workers,omitempty"`
	// EffectiveMaxSessions is the elastic admission capacity in force
	// (MaxSessions scaled by reclaimed ratio and pressure); omitted on
	// static fleets.
	EffectiveMaxSessions int `json:"effective_max_sessions,omitempty"`
	// BudgetRaises/Lowers/Floors count elastic-controller decisions:
	// budget increases, decreases, and forced-floor overrides. All zero
	// on static fleets.
	BudgetRaises int64 `json:"budget_raises,omitempty"`
	BudgetLowers int64 `json:"budget_lowers,omitempty"`
	BudgetFloors int64 `json:"budget_floors,omitempty"`

	Ticks    int   `json:"ticks"`
	Steps    int64 `json:"steps"`
	Skips    int64 `json:"skips"`
	Computes int64 `json:"computes"`
	Forced   int64 `json:"forced"`
	Shed     int64 `json:"shed"`
	Overrun  int64 `json:"overrun"`
	Degraded int64 `json:"degraded,omitempty"`

	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Evicted  int64 `json:"evicted"`

	Violations int `json:"violations"`

	// Utilization is mean computes per tick over the budget; Reclaimed-
	// Ratio is (skips + shed) / steps — both 0 until the first tick.
	Utilization    float64 `json:"utilization"`
	ReclaimedRatio float64 `json:"reclaimed_ratio"`
	// Pressure mirrors Fleet.Pressure at snapshot time.
	Pressure float64 `json:"pressure"`

	TickTime time.Duration `json:"tick_time_ns"` // cumulative wall time inside Tick
	Closed   bool          `json:"closed"`
}

// Stats returns the cumulative fleet statistics.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.statsLocked()
}

func (f *Fleet) statsLocked() FleetStats {
	st := f.stats
	st.Plant = f.eng.PlantName()
	st.Scenario = f.eng.ScenarioID()
	st.Policy = f.eng.PolicyName()
	st.Sessions = len(f.members)
	st.MaxSessions = f.cfg.MaxSessions
	st.Budget = f.budget
	st.Workers = f.cfg.Workers
	if f.ctrl != nil {
		st.EffectiveMaxSessions = f.effMax
		cs := f.ctrl.Stats()
		st.BudgetRaises, st.BudgetLowers, st.BudgetFloors = cs.Raises, cs.Lowers, cs.Floors
	}
	st.Violations = f.violationsLocked()
	if f.budgetTicks > 0 {
		st.Utilization = float64(st.Computes) / float64(f.budgetTicks)
	}
	if f.budget > 0 {
		st.Pressure = float64(f.lastForced) / float64(f.budget)
	}
	if st.Steps > 0 {
		st.ReclaimedRatio = float64(st.Skips+st.Shed) / float64(st.Steps)
	}
	st.TickTime = f.tickTime
	st.Closed = f.closed
	return st
}

// Close evicts every member, recycles their workspaces, and marks the
// fleet terminal. Close is idempotent; the error return keeps the
// io.Closer shape.
func (f *Fleet) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	for _, m := range f.members {
		f.violBase += m.cs.Result.ViolationsX
		f.eng.releaseCore(m.cs)
	}
	f.members = nil
	f.roster = nil
	f.byID = map[int]int{}
	f.closed = true
	return nil
}
