package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"oic/pkg/oic"
)

// nodeState is the router's view of one member: liveness, readiness and
// the load signals, all read from the node's /readyz. Written by the
// prober and by inline transport failures on the proxy path; read by
// placement.
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

	// stale holds the sessions failed over off this node: copies it still
	// holds, or recovers from its journal, that nothing routes to.
	stale map[string]bool
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

// ProbeOnce probes every node once, in parallel, with one GET /readyz:
// an answer of 200 or 503 means the node is live, 200 that it is ready,
// and the body (oic.ReadyzResponse) refreshes the load signals; a body
// that does not decode keeps the last load. The probe bypasses proxy, so
// the router's proxy metrics count forwarded requests only. A node whose
// liveness has failed DeathThreshold consecutive probes transitions to
// dead exactly once, firing the router's failover hook; a later
// successful probe (the process was restarted and replayed its journal)
// clears the death mark and the node rejoins placement.
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
	status, load, haveLoad := rt.probeReadyz(ctx, n)
	live := status == http.StatusOK || status == http.StatusServiceUnavailable
	ready := status == http.StatusOK

	n.mu.Lock()
	n.live = live
	n.ready = ready
	if live && haveLoad {
		n.sessions, n.fleets, n.pressure, n.reclaimedRatio = load.Sessions, load.Fleets, load.Pressure, load.ReclaimedRatio
	}
	if live {
		n.consecFails = 0
		n.dead = false
	}
	n.mu.Unlock()
	if !live {
		rt.noteFailure(n, "probe")
	}
	if ready {
		rt.dropStale(ctx, n)
	}
}

// probeReadyz sends n one GET /readyz and returns its status (0 when the
// round trip fails) and the load its body carries, if the body decodes.
func (rt *Router) probeReadyz(ctx context.Context, n *nodeState) (status int, load oic.ReadyzResponse, ok bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Addr+"/readyz", nil)
	if err != nil {
		return 0, load, false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, load, false
	}
	defer resp.Body.Close()
	ok = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&load) == nil
	// Drain so the connection is reusable.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, load, ok
}

// queueStale records that session id was failed over off n: n's copy, if
// n comes back, must go (dropStale).
func (n *nodeState) queueStale(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stale == nil {
		n.stale = make(map[string]bool)
	}
	n.stale[id] = true
}

// dropStale deletes, on a node whose probe found it ready, each session
// failed over off it: a node that comes back from its journal recovers
// those sessions unfrozen, so two shards would serve one session. It
// waits for readiness because a node still replaying its journal would
// answer 404 for a copy it has yet to restore. Each session is settled
// under its entry lock, so no migration or failover lands on the node
// meanwhile; a session whose row points at the node again (it landed
// back) keeps its copy. A DELETE that fails stays queued for the next
// probe; 404 means the copy is gone already.
func (rt *Router) dropStale(ctx context.Context, n *nodeState) {
	n.mu.Lock()
	ids := make([]string, 0, len(n.stale))
	for id := range n.stale {
		ids = append(ids, id)
	}
	n.mu.Unlock()
	for _, id := range ids {
		if rt.settleStale(ctx, n, id) {
			n.mu.Lock()
			delete(n.stale, id)
			n.mu.Unlock()
		}
	}
}

// settleStale deletes n's copy of session id unless n owns the session
// again, and reports whether the copy is settled.
func (rt *Router) settleStale(ctx context.Context, n *nodeState, id string) bool {
	rt.mu.Lock()
	e := rt.sessions[id]
	rt.mu.Unlock()
	if e != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.node.Load() == n {
			return true
		}
	}
	status, _, _, err := rt.proxy(ctx, n, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
	if err == nil && status == http.StatusOK {
		rt.log.Info("deleted stale copy", "session", id, "node", n.Name)
	}
	return err == nil && (status == http.StatusOK || status == http.StatusNotFound)
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
