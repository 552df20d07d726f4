package acc

import (
	"math/rand"
	"testing"

	"oic/internal/core"
	"oic/internal/mat"
	"oic/internal/plant"
	"oic/internal/traffic"
)

// memoryProbe is a policy that declares the disturbance-memory length it
// needs (plant.MemoryPolicy), as a DRL agent trained with r > 1 does.
type memoryProbe struct {
	core.PolicyFunc
	r int
}

func (p memoryProbe) PolicyMemory() int { return p.r }

func TestRunEpisodeWithMemoryWindowSize(t *testing.T) {
	inst := instance(t, traffic.Constant{V: 40})
	rng := rand.New(rand.NewSource(71))
	x0s, err := inst.SampleInitialStates(1, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.Disturbances(rng, 10)

	for _, r := range []int{1, 4} {
		seen := -1
		probe := memoryProbe{PolicyFunc: core.PolicyFunc{
			Fn: func(_ int, _ mat.Vec, wRecent []mat.Vec) bool {
				seen = len(wRecent)
				return false
			},
			Label: "probe",
		}, r: r}
		ep, err := inst.RunEpisode(probe, x0s[0], w)
		if err != nil {
			t.Fatal(err)
		}
		if seen != r {
			t.Errorf("memory %d: policy saw window of %d", r, seen)
		}
		if ep.Result.ViolationsX != 0 {
			t.Errorf("memory %d: violations", r)
		}
	}
}

func TestEncodeWindowMatchesMemory(t *testing.T) {
	enc := instance(t, traffic.Constant{V: 40}).Encoder
	// Encode must accept any window length; dimension = 2 + len(window).
	for _, r := range []int{1, 2, 4, 8} {
		w := make([]mat.Vec, r)
		for i := range w {
			w[i] = mat.Vec{0, 0}
		}
		if got := len(enc.Encode(mat.Vec{150, 40}, w)); got != 2+r {
			t.Errorf("r=%d: feature dim %d", r, got)
		}
	}
}

func TestDRLEnvMemoryGreaterThanOne(t *testing.T) {
	env, err := plant.NewEnv(instance(t, traffic.Constant{V: 40}), 6, plant.DefaultW1, plant.DefaultW2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if env.StateDim() != 5 {
		t.Fatalf("state dim = %d, want 5", env.StateDim())
	}
	rng := rand.New(rand.NewSource(72))
	s, err := env.Reset(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 5 {
		t.Fatalf("reset state dim = %d", len(s))
	}
	for i := 0; i < 6; i++ {
		s2, _, done, err := env.Step(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(s2) != 5 {
			t.Fatalf("step state dim = %d", len(s2))
		}
		if done != (i == 5) {
			t.Fatalf("done flag wrong at step %d", i)
		}
	}
}
