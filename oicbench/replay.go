package main

import (
	"context"
	"fmt"
	"time"

	"oic/pkg/oic"
)

// replayed is the in-process replay's account of the window: the served
// inputs run through pkg/oic on one worker, with every member step
// timestamped by the fleet's step hook.
type replayed struct {
	reports []oic.TickReport // every tick
	final   [][]byte         // per member: canonical final state

	ticks               int           // window ticks
	tick, pre, post     time.Duration // Σ over window ticks
	skip, compute       time.Duration // Σ step gaps ending at a skipped / computed member
	nSkip, nCompute     int
	monitor, skipBudget time.Duration // Σ decide-oracle time over nDecide states
	nDecide             int
}

// stepClock is the step hook's state. With one worker the hook runs on a
// single goroutine at a time, and Tick returns only after the last call.
type stepClock struct {
	start, last   time.Time
	first         bool
	pre           time.Duration
	skip, compute time.Duration
	nSkip, nComp  int
	states        [][]float64 // each member's post-step state: what the next decide sees
}

func (c *stepClock) hook(member int, ev oic.StepEvent) {
	now := time.Now()
	switch {
	case c.first:
		c.pre = now.Sub(c.start)
		c.first = false
	case ev.Ran:
		c.compute += now.Sub(c.last)
		c.nComp++
	default:
		c.skip += now.Sub(c.last)
		c.nSkip++
	}
	c.last = now
	copy(c.states[member], ev.X)
}

// sinkLevel and sinkBudget keep the timed oracle calls observable.
var (
	sinkLevel  string
	sinkBudget int
)

// replay runs the served inputs in-process, as the same size/seed fleet
// on one worker (trajectories are byte-identical across worker counts).
func replay(ctx context.Context, art *oic.Artifact, sp *spec, in *inputs, seed int64, warm, window int) (*replayed, error) {
	eng, err := oic.LoadEngine(art)
	if err != nil {
		return nil, err
	}
	x0s, err := eng.SampleInitialStates(seed, sp.Members)
	if err != nil {
		return nil, err
	}
	f, err := eng.NewFleet(oic.FleetConfig{ComputeBudget: sp.Budget, Workers: 1, MaxSessions: len(x0s)})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	for _, x0 := range x0s {
		if _, err := f.Admit(x0); err != nil {
			return nil, err
		}
	}
	c := &stepClock{states: make([][]float64, len(x0s))}
	for i := range c.states {
		c.states[i] = make([]float64, eng.NX())
	}
	f.SetStepHook(c.hook)

	r := &replayed{ticks: window}
	for t := 0; t < warm+window; t++ {
		ws := in.tickWS(t)
		c.first, c.skip, c.compute, c.nSkip, c.nComp = true, 0, 0, 0, 0
		c.start = time.Now()
		rep, err := f.Tick(ctx, ws)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("replay tick %d: %w", t, err)
		}
		r.reports = append(r.reports, rep)
		if t < warm {
			continue
		}
		r.tick += end.Sub(c.start)
		r.pre += c.pre
		r.post += end.Sub(c.last)
		r.skip += c.skip
		r.compute += c.compute
		r.nSkip += c.nSkip
		r.nCompute += c.nComp

		// Time the two decide oracles on the states the next decide sees.
		t0 := time.Now()
		for _, x := range c.states {
			sinkLevel, _ = eng.Level(x)
		}
		t1 := time.Now()
		for _, x := range c.states {
			sinkBudget, _ = eng.SkipBudget(x)
		}
		r.monitor += t1.Sub(t0)
		r.skipBudget += time.Since(t1)
		r.nDecide += len(c.states)
	}
	for _, id := range f.IDs() {
		m, err := f.Member(id)
		if err != nil {
			return nil, err
		}
		r.final = append(r.final, memberState(m.T, m.X, m.Level, m.Skips, m.Runs, m.Forced, m.Violations, m.Degraded, m.Energy))
	}
	return r, nil
}
