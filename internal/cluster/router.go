package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oic/internal/obs"
	"oic/pkg/oic"
)

// Config tunes a Router.
type Config struct {
	// DeathThreshold is the consecutive liveness failures after which a
	// node is declared dead (default 3).
	DeathThreshold int
	// AutoFailover re-homes a dead node's sessions onto survivors from
	// their shadow episodes as soon as death is declared.
	AutoFailover bool
	// Client is the HTTP client for node traffic (default: 30s timeout).
	Client *http.Client
	// Logger receives structured request/operation logs; nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.DeathThreshold <= 0 {
		c.DeathThreshold = 3
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// pressureMax is the load-aware placement override: a node whose worst
// fleet ran at or above this forced-computes/budget ratio in its last
// tick has exhausted its forced-compute headroom and is skipped in ring
// order.
const pressureMax = 1.0

// sessEntry is one row of the router's session ownership table. The
// entry mutex serializes proxied operations against migration: a step
// that races a drain blocks until ownership is repointed, then lands on
// the new owner. The owner pointer is additionally atomic so status and
// candidate scans can read it without the entry lock — taking entry
// locks while holding rt.mu would invert the lock order of a session
// DELETE (entry lock, then rt.mu) and deadlock.
type sessEntry struct {
	id string // the ID the shard minted; migration and failover keep it

	mu   sync.Mutex
	node atomic.Pointer[nodeState] // current owner; written under mu
	fp   string                    // canonical config fingerprint (placement key)
	sh   *shadow
	lost bool // owner died without a usable shadow; terminally gone
}

// Router is the oicd cluster front end: it speaks the full /v1/* API,
// keeps the session→shard table, shadows every session's episode, and
// runs the drain/migrate/failover protocol. It mints no ID: sessions and
// fleets keep the IDs their shards minted, and its ownership tables are
// caches that a lookup refills from the shards (learnSession, fleet).
type Router struct {
	cfg    Config
	client *http.Client
	nodes  []*nodeState
	byName map[string]*nodeState
	ring   *ring
	m      routerMetrics

	mu       sync.Mutex
	sessions map[string]*sessEntry
	// fleets pins each fleet to its shard for the fleet's whole life.
	// Fleets do not fail over or drain through the router — tick responses
	// carry aggregate reports, not per-member episodes, so the shadow
	// technique does not apply; a dead node's fleets recover when the node
	// replays its own journal. Concurrent requests to one fleet are
	// serialized by the shard's Fleet, as on a direct oicd.
	fleets map[string]*nodeState
	// learning counts the lookups asking the shards about a table miss;
	// while any is, dropped holds the IDs a DELETE removed, so that no
	// lookup puts their rows back (see lookup).
	learning int
	dropped  map[string]bool

	stopCh   chan struct{}
	stopOnce func()
	probeWG  sync.WaitGroup

	// log is the structured logger (never nil — NopLogger by default);
	// ops retains recent migration/failover spans for /v1/debug/ops.
	log *slog.Logger
	ops *obs.SpanRing
}

// New builds a Router over a validated membership.
func New(m *Membership, cfg Config) (*Router, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:      cfg,
		client:   cfg.Client,
		byName:   make(map[string]*nodeState, len(m.Nodes)),
		sessions: make(map[string]*sessEntry),
		fleets:   make(map[string]*nodeState),
		dropped:  make(map[string]bool),
		stopCh:   make(chan struct{}),
		log:      cfg.Logger.With("component", "oicd-router"),
		ops:      obs.NewSpanRing(64),
	}
	rt.m.initHists()
	names := make([]string, 0, len(m.Nodes))
	for _, n := range m.Nodes {
		ns := &nodeState{Node: Node{Name: n.Name, Addr: strings.TrimRight(n.Addr, "/")}}
		rt.nodes = append(rt.nodes, ns)
		rt.byName[n.Name] = ns
		names = append(names, n.Name)
	}
	rt.ring = newRing(names)
	return rt, nil
}

// place returns the node that should own a new placement of key fp:
// the first ring-preferred node that is ready and under the pressure
// cap. If every ready node is saturated the ring-preferred ready node
// still wins (steady degradation beats refusal); if none is ready,
// ErrNoShard.
func (rt *Router) place(fp string, exclude map[string]bool) (*nodeState, error) {
	var fallback *nodeState
	for _, name := range rt.ring.order(fp) {
		n := rt.byName[name]
		if exclude[name] || !n.isReady() {
			continue
		}
		if n.loadPressure() < pressureMax {
			return n, nil
		}
		if fallback == nil {
			fallback = n
		}
	}
	if fallback != nil {
		return fallback, nil
	}
	return nil, ErrNoShard
}

// leastLoaded returns the ready node with the fewest active sessions —
// placement for stateless work (replays) where cache affinity is moot.
func (rt *Router) leastLoaded() (*nodeState, error) {
	var best *nodeState
	for _, n := range rt.nodes {
		if !n.isReady() {
			continue
		}
		if best == nil || n.loadSessions() < best.loadSessions() {
			best = n
		}
	}
	if best == nil {
		return nil, ErrNoShard
	}
	return best, nil
}

// proxy performs one node round trip. hdr is the client's header on a
// forwarded request: its Content-Type and Accept reach the shard (a body
// is JSON unless the client says otherwise); protocol calls pass nil. The
// context's trace ID rides the X-Oic-Trace-Id header so the shard's logs
// carry the same ID the router minted.
//
// A transport-level failure feeds the node's liveness accounting and
// returns a non-nil error; HTTP-level failures are returned as (status,
// body) for the caller to relay. A failure whose request context is
// already canceled is the CLIENT's exit (disconnect or timeout mid-step),
// not evidence about the node, so it is excluded from liveness
// accounting; a successful round trip is positive evidence and clears
// the failure streak.
func (rt *Router) proxy(ctx context.Context, n *nodeState, method, pathAndQuery string, body []byte, hdr http.Header) (int, string, []byte, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.Addr+pathAndQuery, rd)
	if err != nil {
		return 0, "", nil, err
	}
	if len(body) > 0 {
		ct := hdr.Get("Content-Type")
		if ct == "" {
			ct = "application/json"
		}
		req.Header.Set("Content-Type", ct)
	}
	if ac := hdr.Get("Accept"); ac != "" {
		req.Header.Set("Accept", ac)
	}
	if id := obs.TraceIDFrom(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.m.proxyErrors.Add(1)
		if ctx.Err() == nil {
			rt.noteFailure(n, "transport")
		}
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		rt.m.proxyErrors.Add(1)
		if ctx.Err() == nil {
			rt.noteFailure(n, "transport")
		}
		return 0, "", nil, err
	}
	rt.m.proxyHist.Observe(time.Since(start).Seconds())
	rt.m.proxied.Add(1)
	rt.noteTransportOK(n)
	return resp.StatusCode, resp.Header.Get("Content-Type"), b, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	// The trace middleware stamped the response header before the handler
	// ran; echo it so every router-originated error body names its trace.
	writeJSON(w, status, oic.ErrorResponse{
		Error: msg, Code: code,
		TraceID: w.Header().Get(obs.TraceHeader),
	})
}

// relayFrom relays a node response unchanged — the nodes already speak
// the public wire format — except that a JSON error payload gains the
// shard's name, so a relayed failure names which node produced it.
func (rt *Router) relayFrom(w http.ResponseWriter, n *nodeState, status int, ctype string, body []byte) {
	if status >= 400 && strings.Contains(ctype, "json") {
		var er oic.ErrorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" && er.Node == "" {
			er.Node = n.Name
			if out, err := json.Marshal(er); err == nil {
				body = out
			}
		}
	}
	if ctype != "" {
		w.Header().Set("Content-Type", ctype)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// shardDown writes the consistent shard-unreachable error, naming the
// shard in both the message and the structured node field.
func (rt *Router) shardDown(w http.ResponseWriter, n *nodeState) {
	rt.m.shardDown.Add(1)
	rt.log.Warn("shard unreachable", "node", n.Name, "addr", n.Addr,
		"trace_id", w.Header().Get(obs.TraceHeader))
	writeJSON(w, http.StatusServiceUnavailable, oic.ErrorResponse{
		Error:   fmt.Sprintf("shard %s (%s) is unreachable", n.Name, n.Addr),
		Code:    "shard_down",
		Node:    n.Name,
		TraceID: w.Header().Get(obs.TraceHeader),
	})
}

// readBody reads a request body of at most oic.MaxRequestBytes, the limit
// oicd decodes under too. It answers 413 too_large for a longer body (and
// 400 for a failed read) and returns false, so no truncated body is ever
// forwarded.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, oic.MaxRequestBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body too large (limit %d bytes)", oic.MaxRequestBytes))
	case err != nil:
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
	default:
		return b, true
	}
	return nil, false
}

// Handler returns the router's HTTP API: the full /v1/* surface of a
// node (proxied by ownership) plus the /v1/cluster endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)

	mux.HandleFunc("GET /v1/plants", rt.handlePlants)
	mux.HandleFunc("POST /v1/replay", rt.handleReplay)

	mux.HandleFunc("POST /v1/sessions", rt.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions/{id}", rt.handleSession)
	mux.HandleFunc("POST /v1/sessions/{id}/step", rt.handleSessionStep)
	mux.HandleFunc("GET /v1/sessions/{id}/trace", rt.handleSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.handleSession)

	mux.HandleFunc("POST /v1/fleets", rt.handleCreateFleet)
	mux.HandleFunc("GET /v1/fleets/{id}", rt.handleFleet)
	mux.HandleFunc("DELETE /v1/fleets/{id}", rt.handleFleet)
	mux.HandleFunc("POST /v1/fleets/{id}/tick", rt.handleFleet)
	mux.HandleFunc("POST /v1/fleets/{id}/sessions", rt.handleFleet)
	mux.HandleFunc("GET /v1/fleets/{id}/sessions/{mid}", rt.handleFleet)
	mux.HandleFunc("DELETE /v1/fleets/{id}/sessions/{mid}", rt.handleFleet)
	mux.HandleFunc("GET /v1/fleets/{id}/sessions/{mid}/trace", rt.handleFleet)

	mux.HandleFunc("GET /v1/cluster", rt.handleClusterStatus)
	mux.HandleFunc("POST /v1/cluster/migrate", rt.handleClusterMigrate)
	mux.HandleFunc("POST /v1/cluster/drain", rt.handleClusterDrain)
	mux.Handle("GET /v1/debug/ops", rt.ops)
	return obs.WithTrace(rt.log, mux)
}

// handleHealthz is router liveness: always 200.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "nodes": len(rt.nodes)})
}

// handleReadyz: ready iff at least one shard can take traffic.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := 0
	for _, n := range rt.nodes {
		if n.isReady() {
			ready++
		}
	}
	if ready == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "ready_nodes": 0})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "ready_nodes": ready})
}

// handlePlants forwards to any live node — the registry is identical
// across the cluster (compiled into the binary).
func (rt *Router) handlePlants(w http.ResponseWriter, r *http.Request) {
	for _, n := range rt.nodes {
		if !n.isLive() {
			continue
		}
		status, ctype, b, err := rt.proxy(r.Context(), n, http.MethodGet, "/v1/plants", nil, r.Header)
		if err != nil {
			continue
		}
		rt.relayFrom(w, n, status, ctype, b)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, "no_shard", ErrNoShard.Error())
}

// handleReplay forwards to the least-loaded ready node: replays are
// stateless, so load balance beats cache affinity.
func (rt *Router) handleReplay(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	n, err := rt.leastLoaded()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "no_shard", err.Error())
		return
	}
	status, ctype, b, perr := rt.proxy(r.Context(), n, http.MethodPost, "/v1/replay", body, r.Header)
	if perr != nil {
		rt.shardDown(w, n)
		return
	}
	rt.relayFrom(w, n, status, ctype, b)
}

// readJSON reads a request body and decodes it into v as oicd does: a
// body that reads empty is the zero-value request, and any other is
// decoded as its first JSON value, whatever follows it. It answers 400
// and returns false when either step fails.
func readJSON(w http.ResponseWriter, r *http.Request, v any) ([]byte, bool) {
	body, ok := readBody(w, r)
	if !ok {
		return nil, false
	}
	if len(body) > 0 {
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
			return nil, false
		}
	}
	return body, true
}

// create opens a session or fleet on the shard that fp, its canonical
// config fingerprint, places it on: it POSTs body to that owner at the
// request's path, hands a 201 Created answer to register, and relays the
// shard's answer as the shard wrote it.
func (rt *Router) create(w http.ResponseWriter, r *http.Request, fp string, body []byte, register func(n *nodeState, b []byte) error) {
	n, err := rt.place(fp, nil)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "no_shard", err.Error())
		return
	}
	status, ctype, b, err := rt.proxy(r.Context(), n, http.MethodPost, r.URL.Path, body, nil)
	if err != nil {
		rt.shardDown(w, n)
		return
	}
	if status == http.StatusCreated {
		if err := register(n, b); err != nil {
			writeErr(w, http.StatusBadGateway, "bad_gateway", err.Error())
			return
		}
	}
	rt.relayFrom(w, n, status, ctype, b)
}

// handleCreateSession opens a session with trace recording forced on —
// the recorded episode is the migration medium, and what a router
// rebuilds a shadow from after a restart — and starts its shadow from
// the create response.
func (rt *Router) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req oic.CreateSessionRequest
	if _, ok := readJSON(w, r, &req); !ok {
		return
	}
	canon := oic.Config{
		Plant: req.Plant, Scenario: req.Scenario, Policy: req.Policy,
		Memory: req.Memory, Train: req.Train,
	}.Canonical()
	fp := canon.Fingerprint()
	req.Trace = true
	fwd, _ := json.Marshal(req)
	rt.create(w, r, fp, fwd, func(n *nodeState, b []byte) error {
		var info oic.SessionInfo
		if json.Unmarshal(b, &info) != nil || info.ID == "" {
			return errors.New("node returned malformed session info")
		}
		e := &sessEntry{id: info.ID, fp: fp, sh: newShadow(&info, canon.Train)}
		e.node.Store(n)
		rt.mu.Lock()
		rt.sessions[e.id] = e
		rt.mu.Unlock()
		rt.m.sessionsCreated.Add(1)
		return nil
	})
}

// handleCreateFleet opens a fleet with the client's create body as sent,
// so a routed fleet records member episodes exactly when a direct one
// does: on "trace": true.
func (rt *Router) handleCreateFleet(w http.ResponseWriter, r *http.Request) {
	var req oic.CreateFleetRequest
	body, ok := readJSON(w, r, &req)
	if !ok {
		return
	}
	fp := oic.Config{
		Plant: req.Plant, Scenario: req.Scenario, Policy: req.Policy,
		Memory: req.Memory, Train: req.Train,
	}.Fingerprint()
	rt.create(w, r, fp, body, func(n *nodeState, b []byte) error {
		var info oic.FleetInfo
		if json.Unmarshal(b, &info) != nil || info.ID == "" {
			return errors.New("node returned malformed fleet info")
		}
		rt.mu.Lock()
		rt.fleets[info.ID] = n
		rt.mu.Unlock()
		rt.m.fleetsCreated.Add(1)
		return nil
	})
}

// ask GETs path on every live shard at once and returns, in membership
// order, each shard's body if it answered 200 (nil otherwise).
func (rt *Router) ask(ctx context.Context, path string) [][]byte {
	out := make([][]byte, len(rt.nodes))
	var wg sync.WaitGroup
	for i, n := range rt.nodes {
		if !n.isLive() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, _, b, err := rt.proxy(ctx, n, http.MethodGet, path, nil, nil); err == nil && status == http.StatusOK {
				out[i] = b
			}
		}()
	}
	wg.Wait()
	return out
}

// lookup returns id's row in tbl, filling a miss (after a router restart,
// or for an object created on a shard directly) with learn, which asks
// the shards. Of concurrent lookups of one ID the first to install wins
// and the rest use its row, so every request to a session shares one lock
// and one shadow. A row a DELETE dropped while learn was asking stays
// dropped, and the lookup answers not found.
func lookup[V any](rt *Router, tbl map[string]V, id string, learn func() (V, bool)) (V, bool) {
	rt.mu.Lock()
	v, ok := tbl[id]
	if !ok {
		rt.learning++
	}
	rt.mu.Unlock()
	if ok {
		return v, true
	}
	v, ok = learn()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.learning--
	dropped := rt.dropped[id]
	if rt.learning == 0 {
		clear(rt.dropped)
	}
	if cur, held := tbl[id]; held {
		return cur, true
	}
	if !ok || dropped {
		var zero V
		return zero, false
	}
	tbl[id] = v
	return v, true
}

// forget drops id's row from tbl, and keeps a lookup already asking the
// shards about id from putting it back.
func forget[V any](rt *Router, tbl map[string]V, id string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(tbl, id)
	if rt.learning > 0 {
		rt.dropped[id] = true
	}
}

// session returns a session's ownership entry, learning it from the
// shards on a miss.
func (rt *Router) session(ctx context.Context, id string) (*sessEntry, bool) {
	return lookup(rt, rt.sessions, id, func() (*sessEntry, bool) {
		e := rt.learnSession(ctx, id)
		return e, e != nil
	})
}

// learnSession finds the shard that owns a session: the one whose copy
// answers 200. An unfrozen copy beats a frozen one (a migration source
// the router failed to delete), then the copy further along, then the
// first in membership order. A copy that is frozen with no unfrozen one
// anywhere is a migration a router stopped between freeze and landing,
// so it is unfrozen. The placement key and the shadow come from the
// owner's trace export; a session its owner does not trace is adopted
// without either, as if its shadow had been dropped: it can neither
// migrate nor fail over, so nothing places it.
func (rt *Router) learnSession(ctx context.Context, id string) *sessEntry {
	path := "/v1/sessions/" + url.PathEscape(id)
	var owner *nodeState
	var best oic.SessionInfo
	for i, b := range rt.ask(ctx, path) {
		var info oic.SessionInfo
		if b == nil || json.Unmarshal(b, &info) != nil {
			continue
		}
		if owner == nil || best.Frozen && !info.Frozen || best.Frozen == info.Frozen && info.T > best.T {
			owner, best = rt.nodes[i], info
		}
	}
	if owner == nil {
		return nil
	}
	if best.Frozen {
		// Best effort: a copy that stays frozen answers steps 409 frozen.
		_, _, _, _ = rt.proxy(ctx, owner, http.MethodPost, path+"/unfreeze", []byte("{}"), nil)
	}
	e := &sessEntry{id: id}
	e.node.Store(owner)
	if status, _, bin, err := rt.proxy(ctx, owner, http.MethodGet, path+"/trace?format=binary", nil, nil); err == nil && status == http.StatusOK {
		if tr, err := oic.DecodeTrace(bin); err == nil {
			e.fp = oic.ConfigFromTrace(tr).Canonical().Fingerprint()
			e.sh = shadowFromTrace(tr)
		}
	}
	return e
}

// fleet returns the shard a fleet is pinned to, pinning it on a miss to
// the shard whose GET /v1/fleets/{id} answers 200.
func (rt *Router) fleet(ctx context.Context, id string) (*nodeState, bool) {
	return lookup(rt, rt.fleets, id, func() (*nodeState, bool) {
		for i, b := range rt.ask(ctx, "/v1/fleets/"+url.PathEscape(id)) {
			if b != nil {
				return rt.nodes[i], true
			}
		}
		return nil, false
	})
}

// forward is the one path from a client request that names a session or
// fleet to the shard that owns it: it sends the request's path and query,
// body and negotiation headers through proxy unchanged, and relays the
// answer as relayFrom relays it. seen, when not nil, reads the shard's
// answer before the client does.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, n *nodeState, body []byte, seen func(status int, b []byte)) {
	status, ctype, b, err := rt.proxy(r.Context(), n, r.Method, r.URL.RequestURI(), body, r.Header)
	if err != nil {
		rt.shardDown(w, n)
		return
	}
	if seen != nil {
		seen(status, b)
	}
	rt.relayFrom(w, n, status, ctype, b)
}

// forgetIfGone drops a session's row, with its shadow, when the owner
// answered 404 not_found: the shard no longer holds the session (it
// TTL-evicted it, or a DELETE reached it directly), and the table is a
// cache of what the shards hold. It runs under the entry lock. Fleet pins
// are not dropped this way, because a member 404 carries the same code.
func (rt *Router) forgetIfGone(e *sessEntry, status int, body []byte) {
	if status != http.StatusNotFound {
		return
	}
	var er oic.ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Code == "not_found" {
		forget(rt, rt.sessions, e.id)
	}
}

// handleSession forwards a session's GET, trace export and DELETE to its
// owner under the entry lock, so none of them races a migration's
// repoint. A DELETE drops the ownership row before it proxies, even when
// the owner is unreachable: the client asked for the session's end. (An
// owner that comes back from its journal still holding the session is
// the truth, and a later lookup learns the session again.) An owner that
// answers 404 not_found drops the row too (forgetIfGone).
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	e, ok := rt.session(r.Context(), r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "unknown session")
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.Method == http.MethodDelete {
		forget(rt, rt.sessions, e.id)
	}
	if e.lost {
		writeErr(w, http.StatusGone, "session_lost", "session lost: owner died with no usable shadow episode")
		return
	}
	rt.forward(w, r, e.node.Load(), nil, func(status int, b []byte) {
		rt.forgetIfGone(e, status, b)
	})
}

// handleSessionStep forwards a step and folds every acknowledged result
// into the session's shadow episode before the client sees it. Holding
// the entry lock across the round trip serializes steps against
// migration repointing. A step whose owner fails mid-flight may or may
// not have executed there, but it was never acknowledged, so it is not in
// the shadow: a failover landing resumes from the last acknowledged step,
// and the client's retry lands exactly once. An owner that answers 404
// not_found drops the row (forgetIfGone).
func (rt *Router) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	e, ok := rt.session(r.Context(), r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "unknown session")
		return
	}
	var req oic.StepRequest
	body, ok := readJSON(w, r, &req)
	if !ok {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lost {
		writeErr(w, http.StatusGone, "session_lost", "session lost: owner died with no usable shadow episode")
		return
	}
	rt.forward(w, r, e.node.Load(), body, func(status int, b []byte) {
		rt.recordStep(e, &req, status, b)
		rt.forgetIfGone(e, status, b)
	})
}

// recordStep folds a step response into the shadow. Batch responses may
// carry partial progress before a terminal error; every error-free
// result was executed and acknowledged, so each is recorded.
func (rt *Router) recordStep(e *sessEntry, req *oic.StepRequest, status int, body []byte) {
	if !e.sh.usable() {
		return
	}
	if req.WS != nil {
		var resp oic.StepResponse
		if json.Unmarshal(body, &resp) != nil {
			return
		}
		for i := range resp.Results {
			res := &resp.Results[i]
			if res.Error != "" {
				break
			}
			var w []float64
			if i < len(req.WS) {
				w = req.WS[i]
			}
			rt.shadowAppend(e, w, res)
		}
		return
	}
	if status != http.StatusOK {
		return
	}
	var res oic.StepResult
	if json.Unmarshal(body, &res) != nil {
		return
	}
	rt.shadowAppend(e, req.W, &res)
}

// shadowAppend records one acknowledged step in e's shadow and counts it,
// as recorded or as dropped.
func (rt *Router) shadowAppend(e *sessEntry, w []float64, res *oic.StepResult) {
	switch {
	case e.sh.append(w, res):
		rt.m.shadowSteps.Add(1)
	case !e.sh.usable():
		rt.m.shadowDropped.Add(1)
	}
}

// handleFleet forwards every request that names a fleet to the shard the
// fleet is pinned to. A fleet DELETE unpins it first; a member DELETE
// leaves the pin.
func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n, ok := rt.fleet(r.Context(), id)
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "unknown fleet")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if r.Method == http.MethodDelete && r.PathValue("mid") == "" {
		forget(rt, rt.fleets, id)
	}
	rt.forward(w, r, n, body, nil)
}

// Status snapshots the cluster: per-node health and load plus the
// router's ownership counts.
func (rt *Router) Status() ClusterStatus {
	ownedS := make(map[string]int)
	ownedF := make(map[string]int)
	rt.mu.Lock()
	sessions := len(rt.sessions)
	fleets := len(rt.fleets)
	for _, e := range rt.sessions {
		// Peeking e.node without the entry lock is fine for a status count:
		// repointing is an atomic pointer store, so a snapshot mid-migration
		// is correct for one of the two moments. Taking the entry lock here
		// would invert a session DELETE's entry-then-rt.mu lock order.
		ownedS[e.nodeName()]++
	}
	for _, n := range rt.fleets {
		ownedF[n.Name]++
	}
	rt.mu.Unlock()

	st := ClusterStatus{Sessions: sessions, Fleets: fleets, Lost: int(rt.m.lost.Load())}
	for _, n := range rt.nodes {
		row := n.snapshot()
		row.OwnedSessions = ownedS[row.Name]
		row.OwnedFleets = ownedF[row.Name]
		st.Nodes = append(st.Nodes, row)
	}
	return st
}

// nodeName reads the current owner's name: an atomic load, safe with or
// without the entry lock (a mid-migration read sees one of the two
// owners, both correct for that instant).
func (e *sessEntry) nodeName() string { return e.node.Load().Name }

func (rt *Router) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.Status())
}

func (rt *Router) handleClusterMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
		return
	}
	rep, err := rt.MigrateSession(r.Context(), req.Session, req.Target)
	if err != nil {
		rt.failMigrate(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (rt *Router) handleClusterDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
		return
	}
	rep, err := rt.DrainNode(r.Context(), req.Node)
	if err != nil {
		rt.failMigrate(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// failMigrate maps cluster-layer errors onto the wire convention.
func (rt *Router) failMigrate(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		writeErr(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, ErrUnknownNode):
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
	case errors.Is(err, ErrMigrateMismatch):
		writeErr(w, http.StatusConflict, "migrate_mismatch", err.Error())
	case errors.Is(err, ErrNoShard):
		writeErr(w, http.StatusServiceUnavailable, "no_shard", err.Error())
	case errors.Is(err, ErrNoShadow):
		writeErr(w, http.StatusGone, "session_lost", err.Error())
	case errors.Is(err, ErrShardDown):
		writeErr(w, http.StatusServiceUnavailable, "shard_down", err.Error())
	default:
		writeErr(w, http.StatusBadGateway, "bad_gateway", err.Error())
	}
}
