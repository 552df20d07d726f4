package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oic/internal/obs"
	"oic/pkg/oic"
)

// Config tunes a Router.
type Config struct {
	// Vnodes is the virtual nodes per member on the placement ring
	// (default 64).
	Vnodes int
	// PressureMax is the load-aware placement override: a node whose
	// worst fleet ran at or above this forced-computes/budget ratio in
	// its last tick has exhausted its forced-compute headroom and is
	// skipped in ring order (default 1.0).
	PressureMax float64
	// ShadowLimit caps the router's per-session shadow recording
	// (default 100000, matching the node-side trace cap).
	ShadowLimit int
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
	if c.Vnodes <= 0 {
		c.Vnodes = 64
	}
	if c.PressureMax <= 0 {
		c.PressureMax = 1.0
	}
	if c.ShadowLimit <= 0 {
		c.ShadowLimit = 100_000
	}
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

// sessEntry is one row of the router's session ownership table. The
// entry mutex serializes proxied operations against migration: a step
// that races a drain blocks until ownership is repointed, then lands on
// the new owner. The owner pointer is additionally atomic so status and
// candidate scans can read it without the entry lock — taking entry
// locks while holding rt.mu would invert the lock order of the delete
// handlers (entry lock, then rt.mu) and deadlock.
type sessEntry struct {
	id string // public ID ("c-N")

	mu      sync.Mutex
	node    atomic.Pointer[nodeState] // current owner; written under mu
	localID string                    // the owner's node-local ID ("s-N")
	fp      string                    // canonical config fingerprint (placement key)
	train   oic.TrainConfig
	sh      *shadow
	lost    bool // owner died without a usable shadow; terminally gone
}

// fleetPin pins a fleet to its shard for the fleet's whole life. Fleets
// do not fail over or drain through the router — tick responses carry
// aggregate reports, not per-member episodes, so the shadow technique
// does not apply; a dead node's fleets recover when the node replays its
// own journal. A pin is complete before it is published under rt.mu and
// never changes after, so it needs no lock: concurrent requests to one
// fleet are serialized by the shard's Fleet, as on a direct oicd.
type fleetPin struct {
	id      string     // public ID ("cf-N")
	node    *nodeState // the owner
	localID string     // "f-N" on the owner
}

// Router is the oicd cluster front end: it speaks the full /v1/* API,
// owns the session→shard table, shadows every session's episode, and
// runs the drain/migrate/failover protocol.
type Router struct {
	cfg    Config
	client *http.Client
	nodes  []*nodeState
	byName map[string]*nodeState
	ring   *ring
	m      routerMetrics

	mu        sync.Mutex
	sessions  map[string]*sessEntry
	fleets    map[string]*fleetPin
	nextSess  int
	nextFleet int

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
		fleets:   make(map[string]*fleetPin),
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
	rt.ring = newRing(names, cfg.Vnodes)
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
		if n.loadPressure() < rt.cfg.PressureMax {
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

// proxy performs one node round trip. A transport-level failure feeds
// the node's liveness accounting and returns a non-nil error; HTTP-level
// failures are returned as (status, body) for the caller to relay. A
// failure whose request context is already canceled is the CLIENT's
// exit (disconnect or timeout mid-step), not evidence about the node,
// so it is excluded from liveness accounting; a successful round trip
// is positive evidence and clears the failure streak.
func (rt *Router) proxy(ctx context.Context, n *nodeState, method, pathAndQuery string, body []byte) (int, string, []byte, error) {
	return rt.proxyFwd(ctx, n, method, pathAndQuery, body, nil)
}

// proxyFwd is proxy with the inbound client headers attached: the
// client's Content-Type and Accept are forwarded faithfully (JSON stays
// the default for protocol-internal calls, which pass nil), and the
// context's trace ID rides the X-Oic-Trace-Id header so the shard's logs
// carry the same ID the router minted.
func (rt *Router) proxyFwd(ctx context.Context, n *nodeState, method, pathAndQuery string, body []byte, client http.Header) (int, string, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, n.Addr+pathAndQuery, rd)
	if err != nil {
		return 0, "", nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if client != nil {
		if ct := client.Get("Content-Type"); ct != "" && body != nil {
			req.Header.Set("Content-Type", ct)
		}
		if ac := client.Get("Accept"); ac != "" {
			req.Header.Set("Accept", ac)
		}
	}
	if id := obs.TraceIDFrom(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.m.proxyErrors.Add(1)
		if ctx.Err() == nil {
			rt.noteTransportError(n)
		}
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		rt.m.proxyErrors.Add(1)
		if ctx.Err() == nil {
			rt.noteTransportError(n)
		}
		return 0, "", nil, err
	}
	rt.m.proxyHist.Observe(time.Since(start).Seconds())
	rt.m.proxied.Add(1)
	rt.noteTransportOK(n)
	return resp.StatusCode, resp.Header.Get("Content-Type"), b, nil
}

// get is the prober's plain GET.
func (rt *Router) get(ctx context.Context, n *nodeState, path string) ([]byte, error) {
	status, _, b, err := rt.proxy(ctx, n, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cluster: GET %s%s: status %d", n.Addr, path, status)
	}
	return b, nil
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

// relay copies a node response through unchanged — the nodes already
// speak the public wire format, including error payloads.
func relay(w http.ResponseWriter, status int, ctype string, body []byte) {
	if ctype != "" {
		w.Header().Set("Content-Type", ctype)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// relayFrom relays a node response, annotating JSON error payloads with
// the shard's name so a relayed failure names which node produced it.
func (rt *Router) relayFrom(w http.ResponseWriter, n *nodeState, status int, ctype string, body []byte) {
	if status >= 400 && strings.Contains(ctype, "json") {
		var er oic.ErrorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" && er.Node == "" {
			er.Node = n.Name
			if out, err := json.Marshal(er); err == nil {
				relay(w, status, ctype, out)
				return
			}
		}
	}
	relay(w, status, ctype, body)
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

func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(io.LimitReader(r.Body, 8<<20))
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
	mux.HandleFunc("GET /v1/sessions/{id}", rt.handleSessionGet)
	mux.HandleFunc("POST /v1/sessions/{id}/step", rt.handleSessionStep)
	mux.HandleFunc("GET /v1/sessions/{id}/trace", rt.handleSessionTrace)
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.handleSessionDelete)

	mux.HandleFunc("POST /v1/fleets", rt.handleCreateFleet)
	mux.HandleFunc("GET /v1/fleets/{id}", rt.handleFleetProxy)
	mux.HandleFunc("DELETE /v1/fleets/{id}", rt.handleFleetDelete)
	mux.HandleFunc("POST /v1/fleets/{id}/tick", rt.handleFleetProxy)
	mux.HandleFunc("POST /v1/fleets/{id}/sessions", rt.handleFleetProxy)
	mux.HandleFunc("GET /v1/fleets/{id}/sessions/{mid}", rt.handleFleetProxy)
	mux.HandleFunc("DELETE /v1/fleets/{id}/sessions/{mid}", rt.handleFleetProxy)
	mux.HandleFunc("GET /v1/fleets/{id}/sessions/{mid}/trace", rt.handleFleetProxy)

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
		status, ctype, b, err := rt.proxyFwd(r.Context(), n, http.MethodGet, "/v1/plants", nil, r.Header)
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
	body, err := readBody(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	n, err := rt.leastLoaded()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "no_shard", err.Error())
		return
	}
	status, ctype, b, perr := rt.proxyFwd(r.Context(), n, http.MethodPost, "/v1/replay", body, r.Header)
	if perr != nil {
		rt.shardDown(w, n)
		return
	}
	rt.relayFrom(w, n, status, ctype, b)
}

// handleCreateSession places a session by its canonical config
// fingerprint and opens it on the owner with trace recording forced on —
// the recorded episode is the migration medium, so an untraced session
// would be unmovable.
func (rt *Router) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var req oic.CreateSessionRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
			return
		}
	}
	canon := oic.Config{
		Plant: req.Plant, Scenario: req.Scenario, Policy: req.Policy,
		Memory: req.Memory, Train: req.Train,
	}.Canonical()
	fp := canon.Fingerprint()
	n, err := rt.place(fp, nil)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "no_shard", err.Error())
		return
	}
	req.Trace = true
	fwd, _ := json.Marshal(req)
	status, ctype, b, perr := rt.proxy(r.Context(), n, http.MethodPost, "/v1/sessions", fwd)
	if perr != nil {
		rt.shardDown(w, n)
		return
	}
	if status != http.StatusCreated {
		rt.relayFrom(w, n, status, ctype, b)
		return
	}
	var info oic.SessionInfo
	if err := json.Unmarshal(b, &info); err != nil {
		writeErr(w, http.StatusBadGateway, "bad_gateway", "node returned malformed session info")
		return
	}
	e := &sessEntry{localID: info.ID, fp: fp, train: canon.Train}
	e.node.Store(n)
	e.sh = newShadow(&info, canon.Train, rt.cfg.ShadowLimit)
	rt.mu.Lock()
	rt.nextSess++
	e.id = fmt.Sprintf("c-%d", rt.nextSess)
	rt.sessions[e.id] = e
	rt.mu.Unlock()
	rt.m.sessionsCreated.Add(1)
	info.ID = e.id
	writeJSON(w, http.StatusCreated, info)
}

func (rt *Router) session(id string) (*sessEntry, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e, ok := rt.sessions[id]
	return e, ok
}

func (rt *Router) fleet(id string) (*fleetPin, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	f, ok := rt.fleets[id]
	return f, ok
}

// handleSessionGet proxies the info read, rewriting the node-local ID to
// the public one.
func (rt *Router) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	e, ok := rt.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "unknown session")
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lost {
		writeErr(w, http.StatusGone, "session_lost", "session lost: owner died with no usable shadow episode")
		return
	}
	owner := e.node.Load()
	status, ctype, b, err := rt.proxyFwd(r.Context(), owner, http.MethodGet, "/v1/sessions/"+e.localID, nil, r.Header)
	if err != nil {
		rt.shardDown(w, owner)
		return
	}
	if status == http.StatusOK {
		var info oic.SessionInfo
		if json.Unmarshal(b, &info) == nil {
			info.ID = e.id
			writeJSON(w, http.StatusOK, info)
			return
		}
	}
	rt.relayFrom(w, owner, status, ctype, b)
}

// handleSessionStep proxies a step and folds every acknowledged result
// into the session's shadow episode. Holding the entry lock across the
// round trip serializes steps against migration repointing.
func (rt *Router) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	e, ok := rt.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "unknown session")
		return
	}
	body, err := readBody(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var req oic.StepRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
			return
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lost {
		writeErr(w, http.StatusGone, "session_lost", "session lost: owner died with no usable shadow episode")
		return
	}
	owner := e.node.Load()
	status, ctype, b, perr := rt.proxyFwd(r.Context(), owner, http.MethodPost, "/v1/sessions/"+e.localID+"/step", body, r.Header)
	if perr != nil {
		// The step may or may not have executed on the dying node — but it
		// was never acknowledged, so it is not in the shadow, and a failover
		// landing resumes from the last acknowledged step. The client's
		// retry therefore lands exactly once.
		rt.shardDown(w, owner)
		return
	}
	rt.recordStep(e, &req, status, b)
	rt.relayFrom(w, owner, status, ctype, b)
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
			if rt.shadowAppend(e, w, res) {
				rt.m.shadowSteps.Add(1)
			}
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
	if rt.shadowAppend(e, req.W, &res) {
		rt.m.shadowSteps.Add(1)
	}
}

func (rt *Router) shadowAppend(e *sessEntry, w []float64, res *oic.StepResult) bool {
	ok := e.sh.append(w, res)
	if !ok && !e.sh.usable() {
		rt.m.shadowDropped.Add(1)
	}
	return ok
}

// handleSessionTrace proxies the episode export (JSON or binary),
// rewriting the ID in the JSON form.
func (rt *Router) handleSessionTrace(w http.ResponseWriter, r *http.Request) {
	e, ok := rt.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "unknown session")
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lost {
		writeErr(w, http.StatusGone, "session_lost", "session lost: owner died with no usable shadow episode")
		return
	}
	path := "/v1/sessions/" + e.localID + "/trace"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	owner := e.node.Load()
	status, ctype, b, err := rt.proxyFwd(r.Context(), owner, http.MethodGet, path, nil, r.Header)
	if err != nil {
		rt.shardDown(w, owner)
		return
	}
	if status == http.StatusOK && strings.Contains(ctype, "json") {
		var tr oic.TraceResponse
		if json.Unmarshal(b, &tr) == nil {
			tr.ID = e.id
			writeJSON(w, http.StatusOK, tr)
			return
		}
	}
	rt.relayFrom(w, owner, status, ctype, b)
}

// handleSessionDelete closes the session on its owner and drops the
// ownership row. The row goes away even if the owner is unreachable —
// the client asked for the session's end, and a dead owner's copy
// cannot outlive its journal replay only to serve a deleted ID.
func (rt *Router) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := rt.session(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "unknown session")
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rt.mu.Lock()
	delete(rt.sessions, id)
	rt.mu.Unlock()
	if e.lost {
		writeErr(w, http.StatusGone, "session_lost", "session lost: owner died with no usable shadow episode")
		return
	}
	owner := e.node.Load()
	status, ctype, b, err := rt.proxyFwd(r.Context(), owner, http.MethodDelete, "/v1/sessions/"+e.localID, nil, r.Header)
	if err != nil {
		rt.shardDown(w, owner)
		return
	}
	if status == http.StatusOK {
		var info oic.SessionInfo
		if json.Unmarshal(b, &info) == nil {
			info.ID = e.id
			writeJSON(w, http.StatusOK, info)
			return
		}
	}
	rt.relayFrom(w, owner, status, ctype, b)
}

// handleCreateFleet places a fleet by its canonical config fingerprint
// and forwards the client's create body unchanged, so a routed fleet
// records member episodes exactly when a direct one does: on
// "trace": true.
func (rt *Router) handleCreateFleet(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var req oic.CreateFleetRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
			return
		}
	}
	fp := oic.Config{
		Plant: req.Plant, Scenario: req.Scenario, Policy: req.Policy,
		Memory: req.Memory, Train: req.Train,
	}.Fingerprint()
	n, err := rt.place(fp, nil)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "no_shard", err.Error())
		return
	}
	status, ctype, b, perr := rt.proxy(r.Context(), n, http.MethodPost, "/v1/fleets", body)
	if perr != nil {
		rt.shardDown(w, n)
		return
	}
	if status != http.StatusCreated {
		rt.relayFrom(w, n, status, ctype, b)
		return
	}
	var info oic.FleetInfo
	if err := json.Unmarshal(b, &info); err != nil {
		writeErr(w, http.StatusBadGateway, "bad_gateway", "node returned malformed fleet info")
		return
	}
	f := &fleetPin{node: n, localID: info.ID}
	rt.mu.Lock()
	rt.nextFleet++
	f.id = fmt.Sprintf("cf-%d", rt.nextFleet)
	rt.fleets[f.id] = f
	rt.mu.Unlock()
	rt.m.fleetsCreated.Add(1)
	info.ID = f.id
	writeJSON(w, http.StatusCreated, info)
}

// handleFleetProxy forwards any fleet-scoped request to the pinned
// shard, rewriting the public fleet ID into the node-local one on the
// path and back in ID-bearing responses.
func (rt *Router) handleFleetProxy(w http.ResponseWriter, r *http.Request) {
	f, ok := rt.fleet(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "unknown fleet")
		return
	}
	body, err := readBody(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	path := "/v1/fleets/" + f.localID
	if mid := r.PathValue("mid"); mid != "" {
		path += "/sessions/" + mid
		if strings.HasSuffix(r.URL.Path, "/trace") {
			path += "/trace"
		}
	} else if strings.HasSuffix(r.URL.Path, "/tick") {
		path += "/tick"
	} else if strings.HasSuffix(r.URL.Path, "/sessions") {
		path += "/sessions"
	}
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	var fwd []byte
	if len(body) > 0 {
		fwd = body
	}
	status, ctype, b, perr := rt.proxyFwd(r.Context(), f.node, r.Method, path, fwd, r.Header)
	if perr != nil {
		rt.shardDown(w, f.node)
		return
	}
	rt.rewriteFleetID(w, f, status, ctype, b)
}

// rewriteFleetID maps node-local fleet IDs back to the public one in
// ID-bearing JSON responses; everything else relays unchanged (error
// payloads gain the shard's name).
func (rt *Router) rewriteFleetID(w http.ResponseWriter, f *fleetPin, status int, ctype string, b []byte) {
	if status < 300 && strings.Contains(ctype, "json") {
		var probe map[string]json.RawMessage
		if json.Unmarshal(b, &probe) == nil {
			if raw, ok := probe["id"]; ok {
				var id string
				if json.Unmarshal(raw, &id) == nil && strings.HasPrefix(id, f.localID) {
					pub, _ := json.Marshal(f.id + strings.TrimPrefix(id, f.localID))
					probe["id"] = pub
					out, _ := json.Marshal(probe)
					relay(w, status, ctype, out)
					return
				}
			}
		}
	}
	rt.relayFrom(w, f.node, status, ctype, b)
}

// handleFleetDelete closes the fleet on its shard and unpins it.
func (rt *Router) handleFleetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f, ok := rt.fleet(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "unknown fleet")
		return
	}
	rt.mu.Lock()
	delete(rt.fleets, id)
	rt.mu.Unlock()
	status, ctype, b, err := rt.proxyFwd(r.Context(), f.node, http.MethodDelete, "/v1/fleets/"+f.localID, nil, r.Header)
	if err != nil {
		rt.shardDown(w, f.node)
		return
	}
	rt.rewriteFleetID(w, f, status, ctype, b)
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
		// would invert the delete handlers' entry-then-rt.mu lock order.
		ownedS[e.nodeName()]++
	}
	for _, f := range rt.fleets {
		ownedF[f.node.Name]++
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
