package oic

import (
	"testing"

	"oic/internal/core"
	"oic/internal/plant"
)

// TestDecideLaneZeroAllocs pins the fleet's decide lane at zero
// allocations, as core's TestSkipPathZeroAllocs pins the skip path: the
// golden thermo-drl policy's Decide, restored from the artifact's
// snapshot, and one fleet member's whole Decide (monitor, policy and the
// S_k oracle) on that engine.
func TestDecideLaneZeroAllocs(t *testing.T) {
	e, err := LoadEngine(goldenArtifact(t, "thermo-drl"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.policy.(plant.SnapshottablePolicy); !ok {
		t.Fatalf("thermo-drl engine runs %T, want the restored DRL policy", e.policy)
	}
	f, err := e.NewFleet(FleetConfig{ComputeBudget: 1, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x0s, err := e.SampleInitialStates(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Admit(x0s[0]); err != nil {
		t.Fatal(err)
	}
	m := f.members[0]
	x, ws := m.cs.StateView(), m.cs.RecentWView()
	if level := e.fw.Monitor().Level(x); level != core.InXPrime {
		t.Fatalf("sampled state is at level %v; the policy is consulted only inside X'", level)
	}
	if allocs := testing.AllocsPerRun(200, func() { e.policy.Decide(0, x, ws) }); allocs != 0 {
		t.Errorf("golden DRL policy Decide allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { m.Decide() }); allocs != 0 {
		t.Errorf("fleet member Decide allocates %v times per call, want 0", allocs)
	}
}
