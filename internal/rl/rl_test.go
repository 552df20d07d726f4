package rl

import (
	"math"
	"math/rand"
	"testing"

	"oic/internal/mat"
)

func TestReplayRingBuffer(t *testing.T) {
	r := NewReplay(3)
	for i := 0; i < 5; i++ {
		r.Add(Transition{R: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	// Entries 0 and 1 must have been evicted.
	rng := rand.New(rand.NewSource(1))
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		for _, tr := range r.Sample(3, rng) {
			seen[tr.R] = true
		}
	}
	if seen[0] || seen[1] {
		t.Error("evicted transitions still sampled")
	}
	if !seen[2] || !seen[3] || !seen[4] {
		t.Error("recent transitions missing from samples")
	}
}

func TestEpsilonAnneal(t *testing.T) {
	agent, err := NewDDQN(Config{StateDim: 2, NumActions: 2, EpsDecay: 100, WarmUp: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if e := agent.Epsilon(); math.Abs(e-1.0) > 1e-9 {
		t.Errorf("initial epsilon = %v", e)
	}
	for i := 0; i < 50; i++ {
		agent.Observe(Transition{S: mat.Vec{0, 0}, S2: mat.Vec{0, 0}})
	}
	if e := agent.Epsilon(); math.Abs(e-0.525) > 1e-9 {
		t.Errorf("mid epsilon = %v, want 0.525", e)
	}
	for i := 0; i < 200; i++ {
		agent.Observe(Transition{S: mat.Vec{0, 0}, S2: mat.Vec{0, 0}})
	}
	if e := agent.Epsilon(); math.Abs(e-0.05) > 1e-9 {
		t.Errorf("final epsilon = %v, want 0.05", e)
	}
}

func TestGreedyPicksArgmax(t *testing.T) {
	agent, err := NewDDQN(Config{StateDim: 1, NumActions: 3, Hidden: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	s := mat.Vec{0.5}
	q := agent.QValues(s)
	best := 0
	for a := 1; a < 3; a++ {
		if q[a] > q[best] {
			best = a
		}
	}
	if got := agent.Greedy(s); got != best {
		t.Errorf("Greedy = %d, want %d (q=%v)", got, best, q)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewDDQN(Config{StateDim: 0, NumActions: 2}); err == nil {
		t.Error("zero state dim accepted")
	}
	if _, err := NewDDQN(Config{StateDim: 2, NumActions: 1}); err == nil {
		t.Error("single action accepted")
	}
}

// twoArmedBandit is a 1-step environment where action 1 always pays 1 and
// action 0 pays 0: the simplest sanity check that learning moves toward the
// rewarded action.
type twoArmedBandit struct{ state mat.Vec }

func (b *twoArmedBandit) Reset(*rand.Rand) (mat.Vec, error) { return b.state, nil }
func (b *twoArmedBandit) Step(a int) (mat.Vec, float64, bool, error) {
	r := 0.0
	if a == 1 {
		r = 1
	}
	return b.state, r, true, nil
}

func TestDDQNLearnsBandit(t *testing.T) {
	agent, err := NewDDQN(Config{
		StateDim: 1, NumActions: 2, Hidden: []int{8},
		EpsDecay: 300, WarmUp: 20, TargetSync: 50, BatchSize: 8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &twoArmedBandit{state: mat.Vec{1}}
	if _, err := Train(agent, env, 600, 1); err != nil {
		t.Fatal(err)
	}
	if got := agent.Greedy(mat.Vec{1}); got != 1 {
		t.Errorf("greedy action = %d, want 1 (q=%v)", got, agent.QValues(mat.Vec{1}))
	}
}

// chainEnv is a 5-state corridor: action 1 moves right (+0 reward until the
// end pays +1), action 0 moves left. Requires credit assignment across
// steps, exercising the bootstrapped target.
type chainEnv struct{ pos int }

func (c *chainEnv) Reset(*rand.Rand) (mat.Vec, error) {
	c.pos = 0
	return mat.Vec{0}, nil
}

func (c *chainEnv) Step(a int) (mat.Vec, float64, bool, error) {
	if a == 1 {
		c.pos++
	} else if c.pos > 0 {
		c.pos--
	}
	if c.pos >= 4 {
		return mat.Vec{1}, 1, true, nil
	}
	return mat.Vec{float64(c.pos) / 4}, 0, false, nil
}

func TestDDQNLearnsChain(t *testing.T) {
	agent, err := NewDDQN(Config{
		StateDim: 1, NumActions: 2, Hidden: []int{16},
		Gamma: 0.9, EpsDecay: 2000, WarmUp: 50, TargetSync: 100, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &chainEnv{}
	stats, err := Train(agent, env, 400, 30)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Episodes != 400 {
		t.Fatalf("episodes = %d", stats.Episodes)
	}
	// The greedy policy must walk the chain to the reward from every state.
	for pos := 0; pos < 4; pos++ {
		s := mat.Vec{float64(pos) / 4}
		if agent.Greedy(s) != 1 {
			t.Errorf("greedy at pos %d is not 'right' (q=%v)", pos, agent.QValues(s))
		}
	}
	// Late training should be rewarded in (almost) every episode.
	late := stats.RewardHistory[len(stats.RewardHistory)-50:]
	hits := 0
	for _, r := range late {
		if r > 0.5 {
			hits++
		}
	}
	if hits < 40 {
		t.Errorf("only %d/50 late episodes reached the goal", hits)
	}
}

func TestTrainDeterministicWithSeed(t *testing.T) {
	run := func() []float64 {
		agent, err := NewDDQN(Config{StateDim: 1, NumActions: 2, Hidden: []int{8}, Seed: 99, WarmUp: 10})
		if err != nil {
			t.Fatal(err)
		}
		env := &twoArmedBandit{state: mat.Vec{1}}
		stats, err := Train(agent, env, 50, 1)
		if err != nil {
			t.Fatal(err)
		}
		return stats.RewardHistory
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at episode %d: %v vs %v", i, a[i], b[i])
		}
	}
}
