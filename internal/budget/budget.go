// Package budget implements the elastic compute-budget controller
// (DESIGN.md §13): a deterministic PI loop that retunes a fleet's
// per-tick κ-compute budget from the measured deadline margin.
//
// The paper's premise is that reclaimed κ computations are a budget to be
// re-spent. PR 9 made the spending observable — TickReport.DeadlineMargin
// is how far a tick finished ahead of its wall-time deadline — and this
// package closes the loop: margin above target means the machine has
// headroom, so the budget (and with it admission capacity) grows; margin
// below target means the tick is at risk of overrunning, so the budget
// shrinks and sheds more optional computes into certified-safe skips.
//
// The controller is intentionally boring: pure integer/float arithmetic
// with no clocks, no randomness, and no allocation, so a given input
// sequence yields one budget trajectory on every machine and worker
// count — the same determinism contract the scheduler keeps.
//
// The budget only sizes the optional lane. The scheduler runs every
// monitor-forced compute whatever the budget (counted in
// PlanStats.Overrun), so no budget the controller sets can starve a
// mandated computation, and its output always stays in [Min, Max].
package budget

import (
	"math"
	"time"
)

// The loop's fixed gains and band. Every value is in normalized-error
// units, e = (margin − target)/target, except the gains, which are budget
// units per unit of e.
const (
	// hysteresis is the dead band: while |e| stays inside it the budget
	// holds, which keeps a near-target fleet from dithering.
	hysteresis = 0.25
	// kp and ki are the proportional and integral gains.
	kp = 24
	ki = 6
	// integralMax clamps the error integral (anti-windup): during a long
	// saturation at Min or Max the integral cannot wind past it, so the
	// loop re-tracks within a few updates once the disturbance clears.
	integralMax = 4
)

// Config bounds a Controller. Min, Max, and Target are the caller's
// contract (New clamps Min into [1, Max]).
type Config struct {
	// Min and Max bound the budget the controller will set.
	Min int
	Max int
	// Target is the deadline margin the loop regulates to. Must be > 0;
	// New falls back to 1ms so a zero value cannot divide by zero.
	Target time.Duration
}

func (c Config) withDefaults() Config {
	if c.Target <= 0 {
		c.Target = time.Millisecond
	}
	if c.Max < 1 {
		c.Max = 1
	}
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Min > c.Max {
		c.Min = c.Max
	}
	return c
}

// Stats counts controller decisions for observability.
type Stats struct {
	Raises int64 `json:"raises"` // updates that grew the budget
	Lowers int64 `json:"lowers"` // updates that shrank the budget
	Holds  int64 `json:"holds"`  // updates inside the hysteresis band
}

// Controller is the deterministic PI budget loop. Not safe for concurrent
// use; the owning Fleet serializes calls under its own lock.
type Controller struct {
	cfg Config
	// slew caps the budget change per update, (Max−Min)/8 and at least 1,
	// so one noisy margin sample cannot halve a fleet's throughput.
	slew     int
	budget   int
	integral float64
	stats    Stats
}

// New returns a controller starting at the given budget, clamped into
// [Min, Max].
func New(cfg Config, initial int) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:    cfg,
		slew:   max(1, (cfg.Max-cfg.Min)/8),
		budget: clampInt(initial, cfg.Min, cfg.Max),
	}
}

// Budget returns the current budget (the last Update output, or the
// initial/Set value before the first Update).
func (c *Controller) Budget() int { return c.budget }

// Stats returns the cumulative decision counters.
func (c *Controller) Stats() Stats { return c.stats }

// Set re-seeds the loop at the given budget (clamped into [Min, Max]) and
// zeroes the integral — the hand-off point when a caller retunes the
// budget out-of-band via Fleet.SetComputeBudget.
func (c *Controller) Set(n int) {
	c.budget = clampInt(n, c.cfg.Min, c.cfg.Max)
	c.integral = 0
}

// Update runs one PI step on the tick's measured deadline margin
// (TickReport.DeadlineMargin, negative when the tick overran) and returns
// the next budget. The law, in order:
//
//  1. Normalized error e = (margin − target) / target.
//  2. Hysteresis: |e| ≤ band holds the budget (no integration).
//  3. Conditional integration (anti-windup): the clamped integral only
//     commits when the output did not saturate at Min/Max.
//  4. Slew limit: |Δbudget| ≤ slew per update.
//
// Every step is pure arithmetic on the inputs, so identical input
// sequences give byte-identical budget trajectories.
func (c *Controller) Update(margin time.Duration) int {
	prev := c.budget
	next := prev
	e := (margin - c.cfg.Target).Seconds() / c.cfg.Target.Seconds()
	if math.Abs(e) > hysteresis {
		i2 := clampF(c.integral+e, -integralMax, integralMax)
		d := int(math.Round(kp*e + ki*i2))
		d = clampInt(d, -c.slew, c.slew)
		raw := next + d
		next = clampInt(raw, c.cfg.Min, c.cfg.Max)
		if next == raw {
			c.integral = i2 // unsaturated: commit the integration
		}
	}
	switch {
	case next > prev:
		c.stats.Raises++
	case next < prev:
		c.stats.Lowers++
	default:
		c.stats.Holds++
	}
	c.budget = next
	return next
}

// Sessions is the admission half of the elastic loop: the effective
// MaxSessions coupled to the fleet's last tick. base is the configured
// capacity; reclaimed is TickReport.ReclaimedRatio (the fraction of
// worst-case κ provisioning handed back); pressure is forced/budget.
//
// Reclaimed headroom with low pressure grows capacity — a fleet skipping
// most of its computes can serve more members on the same budget, the
// paper's sessions-per-core dividend. Pressure near saturation shrinks it
// below base, shielding the forced lane before Admit's hard
// ErrFleetOverloaded backpressure trips. The scale factor is clamped to
// [½, 3/2]× base and the result to ≥ 1; pure arithmetic, deterministic.
func Sessions(base int, reclaimed, pressure float64) int {
	if base < 1 {
		base = 1
	}
	reclaimed = clampF(reclaimed, 0, 1)
	pressure = clampF(pressure, 0, 2)
	grow := 0.5 * reclaimed * (1 - clampF(pressure, 0, 1))
	shrink := 0.5 * clampF((pressure-0.8)/0.2, 0, 1)
	f := clampF(1+grow-shrink, 0.5, 1.5)
	n := int(math.Round(float64(base) * f))
	if n < 1 {
		n = 1
	}
	return n
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
