package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"oic/pkg/oic"
)

// parseFleetSizes parses -fleet-sizes: comma-separated positive sizes.
func parseFleetSizes(s string) ([]int, error) {
	var sizes []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -fleet-sizes entry %q", tok)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// runFleet is the loop both fleet runs share. It builds a fleet from cfg,
// admits size members, member i from eng.DrawCase(seed+i, ticks), and
// ticks the fleet ticks times, each member stepping on its own drawn
// disturbance. around, when not nil, is called before each tick and the
// function it returns after it. Tick 0 pays every member's one-time cold
// κ solve, so observe sees every later tick (the only one when ticks is
// 1): steady state is what the deadline questions are about. runFleet
// returns the fleet's stats after the last tick.
func runFleet(eng *oic.Engine, cfg oic.FleetConfig, size, ticks int, seed int64,
	around func(tk int) (after func()), observe func(tk int, rep oic.TickReport)) (oic.FleetStats, error) {
	f, err := eng.NewFleet(cfg)
	if err != nil {
		return oic.FleetStats{}, err
	}
	defer f.Close()
	ids := make([]int, size)
	traces := make([][][]float64, size)
	for i := range size {
		x0, w, err := eng.DrawCase(seed+int64(i), ticks)
		if err != nil {
			return oic.FleetStats{}, err
		}
		if ids[i], err = f.Admit(x0); err != nil {
			return oic.FleetStats{}, err
		}
		traces[i] = w
	}
	ctx := context.Background()
	for tk := range ticks {
		ws := make(map[int][]float64, size)
		for i, id := range ids {
			ws[id] = traces[i][tk]
		}
		after := func() {}
		if around != nil {
			after = around(tk)
		}
		rep, err := f.Tick(ctx, ws)
		after()
		if err != nil {
			return oic.FleetStats{}, err
		}
		if tk > 0 || ticks == 1 {
			observe(tk, rep)
		}
	}
	return f.Stats(), nil
}
