package budget

import (
	"math/rand"
	"testing"
	"time"
)

func msec(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }

// randMargin draws one deadline margin from a seeded generator, across
// the whole interesting range (deep overrun to far-ahead).
func randMargin(rng *rand.Rand) time.Duration {
	return msec(rng.Float64()*240 - 120) // [-120ms, +120ms)
}

// TestBudgetBoundsProperty: for arbitrary margin sequences, from an
// initial budget anywhere in range, every update stays in [Min, Max] and
// moves the budget by at most the slew.
func TestBudgetBoundsProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lo := 1 + rng.Intn(16)
		cfg := Config{Min: lo, Max: lo + rng.Intn(256), Target: 20 * time.Millisecond}
		c := New(cfg, cfg.Min+rng.Intn(cfg.Max-cfg.Min+1))
		prev := c.Budget()
		for i := 0; i < 2000; i++ {
			got := c.Update(randMargin(rng))
			if got < cfg.Min || got > cfg.Max {
				t.Fatalf("seed %d step %d: budget %d outside [%d, %d]", seed, i, got, cfg.Min, cfg.Max)
			}
			if d := got - prev; d > c.slew || d < -c.slew {
				t.Fatalf("seed %d step %d: budget moved %d, slew %d", seed, i, d, c.slew)
			}
			prev = got
		}
	}
}

// TestDeterminism: identical input sequences give byte-identical budget
// trajectories and stats — the contract that lets the fleet determinism
// test hold across Workers settings.
func TestDeterminism(t *testing.T) {
	cfg := Config{Min: 4, Max: 128, Target: 10 * time.Millisecond}
	mk := func() []int {
		rng := rand.New(rand.NewSource(42))
		c := New(cfg, 64)
		out := make([]int, 0, 500)
		for i := 0; i < 500; i++ {
			out = append(out, c.Update(randMargin(rng)))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverge at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestHysteresisHolds: margins inside the dead band leave the budget
// untouched (and count as holds).
func TestHysteresisHolds(t *testing.T) {
	c := New(Config{Min: 1, Max: 100, Target: 20 * time.Millisecond}, 50)
	for i := 0; i < 10; i++ {
		// |e| = 0.2 < band 0.25.
		if got := c.Update(24 * time.Millisecond); got != 50 {
			t.Fatalf("step %d: in-band update moved budget to %d", i, got)
		}
		if got := c.Update(16 * time.Millisecond); got != 50 {
			t.Fatalf("step %d: in-band update moved budget to %d", i, got)
		}
	}
	if st := c.Stats(); st.Holds != 20 || st.Raises != 0 || st.Lowers != 0 {
		t.Fatalf("want 20 holds, got %+v", st)
	}
}

// TestRegulation closes the loop against a toy tick-cost model (cost
// linear in budget) and checks the controller settles with the margin
// inside the hysteresis band of the target.
func TestRegulation(t *testing.T) {
	const (
		deadline = 100 * time.Millisecond
		perUnit  = 0.5 // ms of tick time per budget unit
	)
	cfg := Config{Min: 8, Max: 192, Target: 25 * time.Millisecond}
	c := New(cfg, 8)
	var margin time.Duration
	for i := 0; i < 200; i++ {
		cost := msec(10 + perUnit*float64(c.Budget()))
		margin = deadline - cost
		c.Update(margin)
	}
	band := time.Duration(0.25 * float64(cfg.Target))
	if diff := margin - cfg.Target; diff > band || diff < -band {
		t.Fatalf("loop did not settle: final margin %v, target %v ± %v (budget %d)",
			margin, cfg.Target, band, c.Budget())
	}
}

// TestAntiWindup: after a long saturation at Min under deep overrun, the
// clamped integral lets the budget start recovering within a few updates
// of the disturbance clearing — an unclamped integral would pin it for
// hundreds.
func TestAntiWindup(t *testing.T) {
	c := New(Config{Min: 8, Max: 192, Target: 20 * time.Millisecond}, 96)
	for i := 0; i < 500; i++ {
		c.Update(-80 * time.Millisecond)
	}
	if c.Budget() != 8 {
		t.Fatalf("expected saturation at Min, budget %d", c.Budget())
	}
	start := c.Budget()
	for i := 1; i <= 10; i++ {
		c.Update(60 * time.Millisecond)
		if c.Budget() > start {
			return
		}
	}
	t.Fatalf("budget stuck at %d for 10 updates after disturbance cleared", c.Budget())
}

// TestSet re-seeds the loop and clamps into range.
func TestSet(t *testing.T) {
	c := New(Config{Min: 10, Max: 50, Target: time.Millisecond}, 30)
	c.Set(999)
	if c.Budget() != 50 {
		t.Fatalf("Set(999) = %d, want clamp to 50", c.Budget())
	}
	c.Set(-3)
	if c.Budget() != 10 {
		t.Fatalf("Set(-3) = %d, want clamp to 10", c.Budget())
	}
}

// TestSessions pins the admission-coupling law's shape: reclaimed
// headroom grows capacity, saturation pressure shrinks it, and the output
// stays within [½, 3/2]× base and ≥ 1.
func TestSessions(t *testing.T) {
	const base = 1000
	if got := Sessions(base, 0, 0); got != base {
		t.Fatalf("neutral inputs: got %d, want %d", got, base)
	}
	if got := Sessions(base, 1, 0); got != 1500 {
		t.Fatalf("full reclaim, no pressure: got %d, want 1500", got)
	}
	if got := Sessions(base, 1, 1); got != 500 {
		t.Fatalf("saturated: got %d, want 500", got)
	}
	if hi, lo := Sessions(base, 0.9, 0.1), Sessions(base, 0.9, 0.95); hi <= lo {
		t.Fatalf("pressure should shrink capacity: %d !> %d", hi, lo)
	}
	if lo, hi := Sessions(base, 0.1, 0), Sessions(base, 0.9, 0); lo >= hi {
		t.Fatalf("reclaim should grow capacity: %d !< %d", lo, hi)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		b := rng.Intn(5000)
		got := Sessions(b, rng.Float64()*1.5-0.2, rng.Float64()*2.5-0.2)
		if got < 1 {
			t.Fatalf("Sessions(%d, ...) = %d < 1", b, got)
		}
		if b >= 1 && (got > b+(b+1)/2 || got < b/2) {
			t.Fatalf("Sessions(%d, ...) = %d outside [½, 3/2]×base", b, got)
		}
	}
}
