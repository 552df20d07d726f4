package cluster

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// nodeState is the router's view of one member: liveness (/healthz),
// readiness (/readyz), and the load signals scraped from the node's
// Prometheus gauges. Written by the prober and by inline transport
// failures on the proxy path; read by placement.
type nodeState struct {
	Node

	mu          sync.Mutex
	live        bool
	ready       bool
	dead        bool // consecFails reached the death threshold
	consecFails int

	sessions       int
	fleets         int
	pressure       float64 // max oicd_fleet_pressure across the node's fleets
	reclaimedRatio float64 // mean oicd_fleet_reclaimed_ratio
}

// snapshot returns a consistent copy of the mutable fields.
func (n *nodeState) snapshot() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStatus{
		Name: n.Name, Addr: n.Addr,
		Live: n.live, Ready: n.ready, Dead: n.dead,
		Sessions: n.sessions, Fleets: n.fleets,
		Pressure: n.pressure, ReclaimedRatio: n.reclaimedRatio,
	}
}

func (n *nodeState) isReady() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.live && n.ready && !n.dead
}

func (n *nodeState) isLive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.live && !n.dead
}

func (n *nodeState) loadPressure() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pressure
}

func (n *nodeState) loadSessions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sessions
}

// ProbeOnce probes every node once, in parallel: GET /healthz decides
// liveness, GET /readyz readiness, and a /metrics scrape refreshes the
// load signals. A node whose liveness has failed DeathThreshold
// consecutive probes transitions to dead exactly once, firing the
// router's failover hook; a later successful probe (the process was
// restarted and replayed its journal) clears the death mark and the node
// rejoins placement.
func (rt *Router) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, n := range rt.nodes {
		wg.Add(1)
		go func(n *nodeState) {
			defer wg.Done()
			rt.probeNode(ctx, n)
		}(n)
	}
	wg.Wait()
}

func (rt *Router) probeNode(ctx context.Context, n *nodeState) {
	live := rt.probeOK(ctx, n, "/healthz")
	ready := live && rt.probeOK(ctx, n, "/readyz")

	var sessions, fleets int
	var pressure, reclaimed float64
	haveLoad := false
	if live {
		if status, _, body, err := rt.proxy(ctx, n, http.MethodGet, "/metrics", nil, nil); err == nil && status == http.StatusOK {
			sessions, fleets, pressure, reclaimed = parseLoadGauges(body)
			haveLoad = true
		}
	}

	n.mu.Lock()
	n.live = live
	n.ready = ready
	if haveLoad {
		n.sessions, n.fleets, n.pressure, n.reclaimedRatio = sessions, fleets, pressure, reclaimed
	}
	if live {
		n.consecFails = 0
		n.dead = false
	}
	n.mu.Unlock()
	if !live {
		rt.noteFailure(n, "probe")
	}
}

// noteFailure counts one liveness failure against a node: a failed probe,
// or a connection failure on the proxy path, so a hammered dead node is
// detected at request rate instead of probe rate. The failure that
// reaches DeathThreshold declares the node dead, once, and fires failover
// if enabled. Proxy callers must exclude failures caused by the inbound
// request's own context cancellation (proxy does) — those are client
// exits, and counting them would let a flurry of client disconnects mark
// a healthy node dead and fire failover against a node that is still
// serving.
func (rt *Router) noteFailure(n *nodeState, source string) {
	n.mu.Lock()
	n.live = false
	n.ready = false
	n.consecFails++
	died := n.consecFails >= rt.cfg.DeathThreshold && !n.dead
	n.dead = n.dead || died
	n.mu.Unlock()
	if died {
		rt.m.nodeDeaths.Add(1)
		rt.log.Warn("node declared dead", "node", n.Name, "addr", n.Addr,
			"consecutive_failures", rt.cfg.DeathThreshold, "source", source,
			"auto_failover", rt.cfg.AutoFailover)
		if rt.cfg.AutoFailover {
			go rt.FailoverNode(context.Background(), n.Name)
		}
	}
}

// noteTransportOK resets the consecutive-failure streak after any
// successful proxied round trip: a node answering requests is alive,
// however the probes in between fared. Liveness/readiness flags stay the
// prober's to restore — this only stops sporadic transport blips from
// accumulating toward a death declaration.
func (rt *Router) noteTransportOK(n *nodeState) {
	n.mu.Lock()
	n.consecFails = 0
	n.mu.Unlock()
}

func (rt *Router) probeOK(ctx context.Context, n *nodeState, path string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Addr+path, nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	// Drain so the connection is reusable.
	_, _ = bufio.NewReader(resp.Body).Discard(1 << 16)
	return resp.StatusCode == http.StatusOK
}

// Start runs the probe loop until Stop (or ctx cancellation).
func (rt *Router) Start(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	rt.stopOnce = sync.OnceFunc(func() { close(rt.stopCh) })
	rt.probeWG.Add(1)
	go func() {
		defer rt.probeWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		rt.ProbeOnce(ctx)
		for {
			select {
			case <-rt.stopCh:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				rt.ProbeOnce(ctx)
			}
		}
	}()
}

// Stop halts the probe loop started by Start.
func (rt *Router) Stop() {
	if rt.stopOnce != nil {
		rt.stopOnce()
		rt.probeWG.Wait()
	}
}

// parseLoadGauges extracts the placement-relevant load signals from a
// node's Prometheus text exposition: oicd_sessions_active,
// oicd_fleets_active, the max oicd_fleet_pressure across fleets (forced
// computes / budget — the "forced-compute headroom exhausted" signal),
// and the mean oicd_fleet_reclaimed_ratio.
func parseLoadGauges(body []byte) (sessions, fleets int, maxPressure, meanReclaimed float64) {
	var reclaimedSum float64
	var reclaimedN int
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		switch {
		case strings.HasPrefix(line, "oicd_sessions_active "):
			sessions = int(parseGaugeValue(line))
		case strings.HasPrefix(line, "oicd_fleets_active "):
			fleets = int(parseGaugeValue(line))
		case strings.HasPrefix(line, "oicd_fleet_pressure{"):
			if v := parseGaugeValue(line); v > maxPressure {
				maxPressure = v
			}
		case strings.HasPrefix(line, "oicd_fleet_reclaimed_ratio{"):
			reclaimedSum += parseGaugeValue(line)
			reclaimedN++
		}
	}
	if reclaimedN > 0 {
		meanReclaimed = reclaimedSum / float64(reclaimedN)
	}
	return sessions, fleets, maxPressure, meanReclaimed
}

// parseGaugeValue returns the value field of one exposition line
// ("name 3" or `name{label="x"} 0.5`), or 0 if malformed.
func parseGaugeValue(line string) float64 {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return 0
	}
	return v
}
