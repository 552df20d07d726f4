package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"net/http"
	"time"

	"oic/pkg/oic"
)

// served is what one pass of warm-up and window over a deployment saw.
type served struct {
	attempted, failed int
	lat               []float64 // window tick latencies in ms, in send order; +Inf when failed
	wall              time.Duration
	steal             float64         // share of the machine's CPU time the hypervisor stole during the window
	segWall, segCPU   []time.Duration // per window segment: wall time, and oicd + router CPU time
	rss               int64           // Σ VmHWM of the daemons at the end of the window
	reclaimed         int64           // window steps that skipped κ or were shed
	violations        int
	lanes             hash.Hash        // digest of the work every tick did, warm-up included
	reports           []oic.TickReport // every tick's report
	final             [][]byte         // traced runs: per member, canonical JSON of its final state

	// Traced runs only: /metrics of router and shard around the window, and
	// how long the benchmark's own scrapes of the shard took.
	before, after [2]promSamples
	scrapeLat     []time.Duration
}

func newServed() *served { return &served{lanes: sha256.New()} }

// measure runs the window [warm, warm+window) through send in consecutive
// segments of the given length, reading the wall clock and the daemons'
// CPU time at every boundary; traced runs also scrape both daemons'
// /metrics just before and just after. between, when set, runs after each
// segment, outside the segment's clocks.
func (s *served) measure(ctx context.Context, a *api, dep *deployment, traced bool, warm, window, segment int, send func(from, to int), between func() error) error {
	if traced {
		if err := s.scrapeAll(ctx, a, dep, &s.before); err != nil {
			return err
		}
	}
	cpu, err := deploymentCPU(dep)
	if err != nil {
		return err
	}
	steal0, all0, err := hostSteal()
	if err != nil {
		return err
	}
	t := time.Now()
	for from := warm; from < warm+window; from += segment {
		send(from, from+segment)
		if err := ctx.Err(); err != nil {
			return err
		}
		c, err := deploymentCPU(dep)
		if err != nil {
			return err
		}
		now := time.Now()
		s.segWall = append(s.segWall, now.Sub(t))
		s.segCPU = append(s.segCPU, c-cpu)
		s.wall += now.Sub(t)
		t, cpu = now, c
		if between != nil {
			if err := between(); err != nil {
				return err
			}
			if cpu, err = deploymentCPU(dep); err != nil {
				return err
			}
			t = time.Now()
		}
	}
	steal1, all1, err := hostSteal()
	if err != nil {
		return err
	}
	s.steal = float64(steal1-steal0) / float64(max(all1-all0, 1))
	for _, pid := range dep.pids() {
		r, err := peakRSS(pid)
		if err != nil {
			return err
		}
		s.rss += r
	}
	if traced {
		return s.scrapeAll(ctx, a, dep, &s.after)
	}
	return nil
}

func (s *served) scrapeAll(ctx context.Context, a *api, dep *deployment, dst *[2]promSamples) error {
	var err error
	if dst[0], _, err = a.scrape(ctx, dep.router); err != nil {
		return err
	}
	var lat time.Duration
	dst[1], lat, err = a.scrape(ctx, dep.shard)
	s.scrapeLat = append(s.scrapeLat, lat)
	return err
}

func deploymentCPU(dep *deployment) (time.Duration, error) {
	var sum time.Duration
	for _, pid := range dep.pids() {
		c, err := cpuTime(pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// createFleet opens the workload's fleet through the router.
func createFleet(ctx context.Context, a *api, dep *deployment, in *inputs, sp *spec, seed int64) (string, error) {
	c := in.cfg
	body, _ := json.Marshal(oic.CreateFleetRequest{
		Plant: c.Plant, Scenario: c.Scenario, Policy: c.Policy, Memory: c.Memory, Train: c.Train,
		ComputeBudget: sp.Budget, Size: sp.Members, Seed: seed,
	})
	b, _, err := a.do(ctx, http.MethodPost, dep.router.url+"/v1/fleets", body, http.StatusCreated)
	if err != nil {
		return "", fmt.Errorf("creating fleet: %w", err)
	}
	var info oic.FleetInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return "", err
	}
	if info.Sessions != sp.Members {
		return "", fmt.Errorf("fleet %s has %d members, want %d", info.ID, info.Sessions, sp.Members)
	}
	return info.ID, nil
}

// driveFleet sends every tick back-to-back on one connection: warm-up
// ticks untimed, then the window.
func driveFleet(ctx context.Context, a *api, dep *deployment, fid string, in *inputs, sp *spec, warm, window int, traced bool, between func() error) (*served, error) {
	s := newServed()
	url := dep.router.url + "/v1/fleets/" + fid + "/tick"
	tick := func(t int) {
		s.attempted++
		b, lat, err := a.do(ctx, http.MethodPost, url, in.bodies[t], http.StatusOK)
		var resp oic.FleetTickResponse
		if err == nil {
			err = json.Unmarshal(b, &resp)
		}
		if err == nil && (len(resp.Reports) != 1 || len(resp.Reports[0].Errors) > 0) {
			err = fmt.Errorf("tick %d: %d reports, errors %v", t, len(resp.Reports), resp.Reports)
		}
		timed := t >= warm
		if err != nil {
			s.failed++
			s.reports = append(s.reports, oic.TickReport{Tick: -1})
			if timed {
				s.lat = append(s.lat, math.Inf(1))
			}
			return
		}
		rep := resp.Reports[0]
		s.reports = append(s.reports, rep)
		fmt.Fprintf(s.lanes, "%d %d %d %d %d %d\n", rep.Sessions, rep.Skips, rep.Computes, rep.Forced, rep.Shed, rep.Overrun)
		s.violations = max(s.violations, rep.Violations)
		if timed {
			s.lat = append(s.lat, float64(lat)/float64(time.Millisecond))
			s.reclaimed += int64(rep.Skips + rep.Shed)
		}
	}
	send := func(from, to int) {
		for t := from; t < to; t++ {
			tick(t)
		}
	}
	send(0, warm)
	if err := s.measure(ctx, a, dep, traced, warm, window, sp.Segment, send, between); err != nil || !traced {
		return s, err
	}
	for id := range in.ws {
		var m oic.FleetMemberInfo
		if err := a.getJSON(ctx, fmt.Sprintf("%s/v1/fleets/%s/sessions/%d", dep.router.url, fid, id), &m); err != nil {
			return nil, err
		}
		s.final = append(s.final, memberState(m.T, m.X, m.Level, m.Skips, m.Runs, m.Forced, m.Violations, m.Degraded, m.Energy))
	}
	return s, nil
}

// memberState is the canonical JSON of the state fields a served fleet
// member and its in-process replay must agree on bit for bit
// (JSON float encoding round-trips float64 exactly).
func memberState(t int, x []float64, level string, skips, runs, forced, viol, degraded int, energy float64) []byte {
	b, _ := json.Marshal([]any{t, x, level, skips, runs, forced, viol, degraded, energy})
	return b
}

// shardCounter reads one unlabeled counter from the shard's /metrics.
func shardCounter(ctx context.Context, a *api, dep *deployment, name string) (int64, error) {
	m, _, err := a.scrape(ctx, dep.shard)
	if err != nil {
		return 0, err
	}
	v, ok := m[name]
	if !ok {
		return 0, fmt.Errorf("shard /metrics has no %s", name)
	}
	return int64(v), nil
}
