package main

import (
	"context"
	"slices"
	"testing"

	"oic/pkg/oic"
)

func TestParseFleetSizes(t *testing.T) {
	got, err := parseFleetSizes("50, 100,7")
	if err != nil || !slices.Equal(got, []int{50, 100, 7}) {
		t.Fatalf("parseFleetSizes = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-3", "10,x", "10,,20"} {
		if _, err := parseFleetSizes(bad); err == nil {
			t.Errorf("parseFleetSizes(%q) accepted", bad)
		}
	}
}

// TestRunFleet runs the shared fleet loop on a small fleet: every member
// steps on its own drawn case, tick 0 is left out of what observe sees
// unless it is the only tick, around brackets every tick, and the
// deterministic fields repeat.
func TestRunFleet(t *testing.T) {
	eng, err := oic.NewEngine(oic.Config{Plant: "acc", Policy: oic.PolicyBangBang})
	if err != nil {
		t.Fatal(err)
	}
	const size, ticks, seed = 12, 40, 5

	// Bang-bang computes only when forced, and a forced compute is never
	// shed, so the fleet's skips are the members' skips as lone sessions.
	wantSkips := 0
	for i := range size {
		x0, w, err := eng.DrawCase(seed+int64(i), ticks)
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.NewSession(x0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.StepMany(context.Background(), w); err != nil {
			t.Fatal(err)
		}
		wantSkips += s.Info().Skips
		s.Close()
	}

	run := func(budget, ticks int) (oic.FleetStats, []int) {
		t.Helper()
		var observed []int
		open := -1
		around := func(tk int) func() {
			if open != -1 {
				t.Errorf("tick %d starts inside tick %d", tk, open)
			}
			open = tk
			return func() { open = -1 }
		}
		st, err := runFleet(eng, oic.FleetConfig{ComputeBudget: budget, MaxSessions: size}, size, ticks, seed,
			around, func(tk int, rep oic.TickReport) {
				if open != -1 {
					t.Errorf("tick %d observed before its after hook ran", tk)
				}
				if rep.Tick != tk || rep.Sessions != size {
					t.Errorf("tick %d: report tick %d, %d sessions", tk, rep.Tick, rep.Sessions)
				}
				observed = append(observed, tk)
			})
		if err != nil {
			t.Fatal(err)
		}
		return st, observed
	}

	st, observed := run(size, ticks)
	if len(observed) != ticks-1 || observed[0] != 1 || observed[ticks-2] != ticks-1 {
		t.Errorf("observed ticks %v, want 1..%d", observed, ticks-1)
	}
	if st.Sessions != size || st.Ticks != ticks || st.Steps != size*ticks || st.Shed != 0 || st.Violations != 0 {
		t.Errorf("stats %+v", st)
	}
	if st.Skips != int64(wantSkips) || st.Computes == 0 {
		t.Errorf("fleet skips %d and computes %d, lone sessions skip %d", st.Skips, st.Computes, wantSkips)
	}

	// Under a budget of 1 the forced computes overrun it and the
	// trajectories stay the same; the deterministic fields repeat.
	a, _ := run(1, ticks)
	b, _ := run(1, ticks)
	if a.Overrun == 0 || a.Skips != st.Skips || a.Computes != st.Computes || a.Shed != 0 || a.Violations != 0 {
		t.Errorf("budget 1: %+v", a)
	}
	if a.Utilization != b.Utilization || a.ReclaimedRatio != b.ReclaimedRatio ||
		a.Overrun != b.Overrun || a.Skips != b.Skips || a.Computes != b.Computes {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}

	if _, observed := run(size, 1); !slices.Equal(observed, []int{0}) {
		t.Errorf("one tick: observed %v, want [0]", observed)
	}
}
