// Package server implements oicd, the long-running HTTP/JSON session
// server over the pkg/oic facade (DESIGN.md §6). It exposes the runtime
// monitor as a service: clients open control sessions against registered
// plants and stream states in, one step (or a batch of steps) per request.
//
//	POST   /v1/sessions           create a session (engine cached per config)
//	GET    /v1/sessions/{id}      session snapshot
//	POST   /v1/sessions/{id}/step advance: {"w": [...]} or {"ws": [[...], ...]}
//	DELETE /v1/sessions/{id}      close the session, recycle its workspace
//	GET    /v1/plants             plant + scenario catalogue
//	GET    /healthz               liveness + basic stats (always 200 while serving)
//	GET    /readyz                readiness (503 while preloading or recovering) + load
//	GET    /metrics               Prometheus text format
//
// Artifact sharing: engines (safety sets, compiled LP, trained policy)
// are cached per configuration and shared by every session; session
// workspaces are pooled inside each engine. Sessions idle longer than the
// TTL are evicted by a janitor so abandoned clients cannot pin memory.
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oic/internal/fault"
	"oic/internal/journal"
	"oic/internal/obs"
	"oic/pkg/oic"
)

// Config tunes the server. The zero value serves with 15-minute session
// TTL and a 4096-session cap.
type Config struct {
	// SessionTTL evicts sessions idle longer than this; ≤ 0 means 15m.
	SessionTTL time.Duration
	// MaxSessions rejects new sessions beyond this live count; ≤ 0 means 4096.
	MaxSessions int
	// MaxEngines rejects session configurations beyond this many cached
	// engines; ≤ 0 means 64. Engines are expensive (set compilation, DRL
	// training) and cached for the server's lifetime, so the cap bounds
	// what client-controlled configuration space can pin.
	MaxEngines int
	// MaxFleets rejects new fleets beyond this live count; ≤ 0 means 16.
	// A fleet can hold thousands of pooled sessions, so the cap is much
	// smaller than MaxSessions.
	MaxFleets int
	// RequestTimeout bounds each request's handling time: on expiry the
	// request context cancels and the response is 503 {"code":"deadline"} —
	// distinct from 499, which is reserved for the client going away.
	// ≤ 0 disables (the http.Server read/write timeouts still apply).
	RequestTimeout time.Duration
	// TraceLimit caps a traced or imported session's episode length; past
	// it, steps fail with 409 trace_limit instead of growing server memory
	// without bound. ≤ 0 means the default (maxTraceSteps, 100k).
	TraceLimit int
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// Logger receives structured request/operation logs; nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.MaxEngines <= 0 {
		c.MaxEngines = 64
	}
	if c.MaxFleets <= 0 {
		c.MaxFleets = 16
	}
	if c.TraceLimit <= 0 {
		c.TraceLimit = maxTraceSteps
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// engineSlot caches one engine per configuration; the once gate makes
// expensive construction (set compilation, DRL training) single-flight.
type engineSlot struct {
	once sync.Once
	eng  *oic.Engine
	err  error
}

// touchable carries the TTL janitor's last-use stamp; embed it in every
// evictable server object.
type touchable struct {
	lastUsed atomic.Int64 // unix nanos of the last touch
}

func (t *touchable) stamp(ns int64) { t.lastUsed.Store(ns) }

// session is one live server-side session.
type session struct {
	id string
	s  *oic.Session
	touchable
}

// Server is the oicd request handler plus its session and engine state.
type Server struct {
	cfg Config

	// tag is drawn at random once per process. Every ID the server mints
	// is "s-<tag>-<n>" or "f-<tag>-<n>", so IDs never repeat across shards
	// or restarts, and recovery needs no counter past the journaled ones.
	tag string

	mu          sync.Mutex
	engines     map[string]*engineSlot
	sessions    map[string]*session
	fleets      map[string]*fleetEntry
	nextID      uint64
	nextFleetID uint64
	// landing holds the session IDs reserved by publishSession whose
	// session is not yet in sessions, so two imports cannot claim one ID.
	landing map[string]bool

	m metrics

	// store is the optional on-disk artifact catalogue (OpenArtifactStore);
	// nil means every engine is built in-process. preloading gates /readyz
	// readiness while BeginPreload materializes the catalogue.
	store      *oic.ArtifactStore
	preloading atomic.Bool

	// jw is the optional write-ahead journal (OpenJournal); recovering
	// gates /readyz and the creation endpoints while BeginJournalRecovery
	// replays a previous journal to head.
	jw         *journal.Writer
	jopts      journal.Options
	recovering atomic.Bool

	// faults is the optional deterministic fault injector (SetFaults),
	// threaded into the artifact store, the journal, and every fleet.
	faults *fault.Injector

	stopJanitor chan struct{}
	janitorWG   sync.WaitGroup

	// log is the structured logger (never nil — NopLogger by default);
	// ops retains recent multi-phase operation spans for /v1/debug/ops.
	log *slog.Logger
	ops *obs.SpanRing
}

// New returns a server; call Handler for its http.Handler and Close on
// shutdown.
func New(cfg Config) *Server {
	var tag [8]byte
	_, _ = rand.Read(tag[:]) // crypto/rand.Read never fails
	s := &Server{
		cfg:      cfg.withDefaults(),
		tag:      hex.EncodeToString(tag[:]),
		engines:  map[string]*engineSlot{},
		sessions: map[string]*session{},
		fleets:   map[string]*fleetEntry{},
		landing:  map[string]bool{},
		ops:      obs.NewSpanRing(64),
	}
	s.log = s.cfg.Logger.With("component", "oicd")
	s.m.initHists()
	return s
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/plants", s.handlePlants)
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("POST /v1/sessions/resume", s.handleSessionResume)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleStep)
	mux.HandleFunc("GET /v1/sessions/{id}/trace", s.handleSessionTrace)
	mux.HandleFunc("POST /v1/sessions/{id}/freeze", s.handleSessionFreeze)
	mux.HandleFunc("POST /v1/sessions/{id}/unfreeze", s.handleSessionUnfreeze)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/replay", s.handleReplay)
	mux.HandleFunc("POST /v1/fleets", s.handleFleetCreate)
	mux.HandleFunc("GET /v1/fleets/{id}", s.handleFleetGet)
	mux.HandleFunc("DELETE /v1/fleets/{id}", s.handleFleetDelete)
	mux.HandleFunc("POST /v1/fleets/{id}/tick", s.handleFleetTick)
	mux.HandleFunc("POST /v1/fleets/{id}/sessions", s.handleFleetAdmit)
	mux.HandleFunc("GET /v1/fleets/{id}/sessions/{mid}", s.handleFleetMemberGet)
	mux.HandleFunc("GET /v1/fleets/{id}/sessions/{mid}/trace", s.handleFleetMemberTrace)
	mux.HandleFunc("DELETE /v1/fleets/{id}/sessions/{mid}", s.handleFleetMemberDelete)
	mux.Handle("GET /v1/debug/ops", s.ops)
	var h http.Handler = mux
	if s.cfg.RequestTimeout > 0 {
		h = s.withRequestTimeout(h)
	}
	// Trace middleware goes outermost so every handler (and the timeout
	// wrapper's context) sees the request's trace ID.
	return obs.WithTrace(s.log, h)
}

// withRequestTimeout bounds each request's context. Handlers that respect
// the context (stepping, ticking) observe context.DeadlineExceeded and map
// it to 503 "deadline"; a client disconnect still cancels with
// context.Canceled and maps to 499 — the two exits stay distinguishable.
func (s *Server) withRequestTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// SetFaults installs (or clears, with nil) the deterministic fault
// injector on every faultable subsystem the server owns: artifact-store
// I/O, journal I/O (applied at OpenJournal), and fleet schedulers
// (applied at fleet creation). Call before serving traffic.
func (s *Server) SetFaults(inj *fault.Injector) {
	s.faults = inj
	if s.store != nil {
		s.store.SetFaults(inj)
	}
}

// StartJanitor launches the TTL eviction loop; Close stops it.
func (s *Server) StartJanitor() {
	interval := s.cfg.SessionTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	s.stopJanitor = make(chan struct{})
	s.janitorWG.Add(1)
	go func() {
		defer s.janitorWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.EvictIdle()
			case <-s.stopJanitor:
				return
			}
		}
	}()
}

// SessionCount reports the number of live sessions — an observability
// hook for cluster tests and operators (the /metrics gauge is the
// scrape-path equivalent).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Close shuts the server down in durability order: flush and close the
// journal first (the caller has already drained HTTP, so every
// acknowledged step is in the buffer and must reach disk), then stop the
// TTL janitor, then release every live session and fleet WITHOUT writing
// close records — a shutdown is not a close, and the journal's open
// sessions must survive into the next process's recovery.
func (s *Server) Close() {
	if s.jw != nil {
		if err := s.jw.Close(); err != nil {
			s.m.journalErrors.Add(1)
		}
	}
	if s.stopJanitor != nil {
		close(s.stopJanitor)
		s.janitorWG.Wait()
		s.stopJanitor = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, se := range s.sessions {
		se.s.Close()
		delete(s.sessions, id)
	}
	for id, fe := range s.fleets {
		fe.f.Close()
		delete(s.fleets, id)
	}
}

// EvictIdle closes and removes every session and fleet idle longer than
// the TTL, returning how many objects were evicted. The janitor calls it
// periodically; tests call it directly.
func (s *Server) EvictIdle() int {
	deadline := s.cfg.Now().Add(-s.cfg.SessionTTL).UnixNano()
	s.mu.Lock()
	var victims []*session
	for id, se := range s.sessions {
		if se.lastUsed.Load() < deadline {
			victims = append(victims, se)
			delete(s.sessions, id)
		}
	}
	var fleetVictims []*fleetEntry
	for id, fe := range s.fleets {
		if fe.lastUsed.Load() < deadline {
			fleetVictims = append(fleetVictims, fe)
			delete(s.fleets, id)
		}
	}
	s.mu.Unlock()
	for _, se := range victims {
		se.s.Close()
		s.journalCloseSession(se.id)
		s.m.sessionsEvicted.Add(1)
	}
	for _, fe := range fleetVictims {
		fe.f.Close()
		s.journalCloseFleet(fe.id)
		s.m.fleetsEvicted.Add(1)
	}
	if len(victims)+len(fleetVictims) > 0 {
		s.journalSyncRequest()
	}
	return len(victims) + len(fleetVictims)
}

// Bounds on client-controlled construction cost: the counts caps
// (MaxSessions/MaxEngines) bound how many objects exist, these bound how
// expensive a single one may be (disturbance-ring size, training work).
const (
	maxMemory        = 64
	maxTrainEpisodes = 20000
	maxTrainSteps    = 20000
	// maxTrainTotal bounds episodes × steps — the actual training work,
	// which runs synchronously inside the first create for a config. 1M
	// steps is ~2× the paper's full scale (500 × 1000) and tens of
	// seconds of CPU; anything larger belongs in an offline pipeline, not
	// a serving request.
	maxTrainTotal = 1_000_000
)

// validateCreate rejects engine configurations whose per-object cost is
// unbounded.
func validateCreate(cfg oic.Config) error {
	if cfg.Memory < 0 || cfg.Memory > maxMemory {
		return badRequest(fmt.Sprintf("memory %d outside [0, %d]", cfg.Memory, maxMemory))
	}
	if cfg.Train.Episodes < 0 || cfg.Train.Episodes > maxTrainEpisodes {
		return badRequest(fmt.Sprintf("train.episodes %d outside [0, %d]", cfg.Train.Episodes, maxTrainEpisodes))
	}
	if cfg.Train.Steps < 0 || cfg.Train.Steps > maxTrainSteps {
		return badRequest(fmt.Sprintf("train.steps %d outside [0, %d]", cfg.Train.Steps, maxTrainSteps))
	}
	if total := cfg.Train.Episodes * cfg.Train.Steps; total > maxTrainTotal {
		return badRequest(fmt.Sprintf("train.episodes × train.steps = %d exceeds %d total training steps", total, maxTrainTotal))
	}
	return nil
}

// engine returns the cached engine for cfg, building it on first use.
// Configs canonicalize (oic.Config.Canonical) so semantically identical
// requests share one cache slot, and the cache key is the same
// fingerprint the artifact store is addressed by: a store hit restores
// the engine from disk instead of recompiling sets and retraining.
func (s *Server) engine(cfg oic.Config) (*oic.Engine, error) {
	cfg = cfg.Canonical()
	key := cfg.Fingerprint()
	s.mu.Lock()
	slot, ok := s.engines[key]
	if !ok {
		if len(s.engines) >= s.cfg.MaxEngines {
			s.mu.Unlock()
			return nil, errEngineCapacity
		}
		slot = &engineSlot{}
		s.engines[key] = slot
	}
	s.mu.Unlock()
	slot.once.Do(func() {
		if eng, ok := s.loadFromStore(key); ok {
			slot.eng = eng
			return
		}
		slot.eng, slot.err = oic.NewEngine(cfg)
		if slot.err == nil {
			s.m.enginesBuilt.Add(1)
			s.writeBack(key, slot.eng)
		}
	})
	if slot.err != nil {
		// Drop failed slots so a later, corrected registry state (or a
		// transient failure) is not cached forever.
		s.mu.Lock()
		if s.engines[key] == slot {
			delete(s.engines, key)
		}
		s.mu.Unlock()
	}
	return slot.eng, slot.err
}

func (s *Server) touch(t interface{ stamp(int64) }) { t.stamp(s.cfg.Now().UnixNano()) }

func (s *Server) lookup(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.sessions[id]
	return se, ok
}

// ---- handlers ----

// handleHealthz is pure liveness: a 200 means the process is up and
// serving HTTP, nothing more. Cluster supervisors key kill decisions on
// this — a node that is preloading or recovering is *alive* and must not
// be restarted, so those states appear in the body but never change the
// status. Route traffic on /readyz instead.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	live := len(s.sessions)
	engines := len(s.engines)
	fleets := len(s.fleets)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"preloading": s.preloading.Load(),
		"recovering": s.recovering.Load(),
		"sessions":   live,
		"engines":    engines,
		"fleets":     fleets,
	})
}

// handleReadyz is readiness: 503 while the server cannot yet serve
// correct answers — during -preload (the artifact catalogue is still
// materializing) and during journal recovery (the server must not serve
// until it again holds exactly the state it had acknowledged before the
// crash). Load balancers and the oicd-router hold traffic on 503 here
// without concluding the node is dead. The body also carries the load
// oicd-router places by (oic.ReadyzResponse), so its probe is this one
// request.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	live, engines, fleets := s.load()
	body := oic.ReadyzResponse{OK: true, Sessions: live, Engines: engines, Fleets: len(fleets)}
	var reclaimed float64
	for _, fg := range fleets {
		body.Pressure = max(body.Pressure, fg.stats.Pressure)
		reclaimed += fg.stats.ReclaimedRatio
	}
	if len(fleets) > 0 {
		body.ReclaimedRatio = reclaimed / float64(len(fleets))
	}
	status := http.StatusOK
	switch {
	case s.preloading.Load():
		body.OK, body.Preloading = false, true
		status = http.StatusServiceUnavailable
	case s.recovering.Load():
		body.OK, body.Recovering = false, true
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// load returns the live session and cached engine counts and each live
// fleet's last *published* stats snapshot (stored by the operation that
// completed it), in fleet ID order. It never calls Stats(): that would
// block on a fleet mutex held for the whole of an in-flight tick, and
// two concurrently ticking fleets would interleave mid-tick cuts into one
// read. The published snapshots are lock-free to read and each is
// internally consistent; the stable order keeps a scrape diffable.
func (s *Server) load() (sessions, engines int, fleets []fleetGauge) {
	s.mu.Lock()
	sessions = len(s.sessions)
	engines = len(s.engines)
	entries := make([]*fleetEntry, 0, len(s.fleets))
	for _, fe := range s.fleets {
		entries = append(entries, fe)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	fleets = make([]fleetGauge, len(entries))
	for i, fe := range entries {
		fleets[i] = fleetGauge{id: fe.id, stats: fe.snapshotStats()}
	}
	return sessions, engines, fleets
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	live, engines, fleets := s.load()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.render(w, live, engines, fleets, s.ArtifactStats(), s.JournalStats())
}

func (s *Server) handlePlants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"plants": oic.Plants()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		s.fail(w, errRecovering)
		return
	}
	var req oic.CreateSessionRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if req.Plant == "" {
		s.fail(w, badRequest("missing plant"))
		return
	}
	cfg := oic.Config{
		Plant: req.Plant, Scenario: req.Scenario, Policy: req.Policy,
		Memory: req.Memory, Train: req.Train,
	}
	if err := validateCreate(cfg); err != nil {
		s.fail(w, err)
		return
	}
	eng, err := s.engine(cfg)
	if err != nil {
		s.fail(w, err)
		return
	}
	x0 := req.X0
	if x0 == nil {
		xs, err := eng.SampleInitialStates(req.Seed, 1)
		if err != nil {
			s.fail(w, fmt.Errorf("sampling initial state: %w", err))
			return
		}
		if len(xs) == 0 {
			s.fail(w, errors.New("sampling initial state: empty sample from X'"))
			return
		}
		x0 = xs[0]
	}

	sess, err := eng.NewSession(x0)
	if err != nil {
		s.fail(w, err)
		return
	}
	if req.Trace {
		// The session is fresh (t = 0), so StartTrace cannot be late; the
		// cap keeps a hostile client from growing a recording unboundedly.
		if err := sess.StartTrace(s.cfg.TraceLimit); err != nil {
			sess.Close()
			s.fail(w, err)
			return
		}
	}
	id, err := s.publishSession("", eng, sess, x0, nil)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.m.sessionsCreated.Add(1)

	info := sess.Info()
	info.ID = id
	writeJSON(w, http.StatusCreated, info)
}

// publishSession registers a created or imported session write-ahead:
// it reserves id (minting one when id is empty), journals the open record
// and any imported prefix with the step hook installed, and only then
// inserts the session where a client can step it, so every acknowledged
// step is in the journal. A full server, or an id the server holds or is
// already landing, is refused at the reservation and journals nothing; a
// create that loses the capacity race at the insert journals a close
// record, so recovery skips it. On error the session is closed.
func (s *Server) publishSession(id string, eng *oic.Engine, sess *oic.Session, x0 []float64, prefix []oic.StepEvent) (string, error) {
	s.mu.Lock()
	var err error
	switch {
	case len(s.sessions) >= s.cfg.MaxSessions:
		err = errCapacity
	case id == "":
		// A landing may hold an ID of this server's own form (a session
		// migrating back to the shard that minted it), so skip held IDs.
		for id == "" || s.sessions[id] != nil || s.landing[id] {
			s.nextID++
			id = fmt.Sprintf("s-%s-%d", s.tag, s.nextID)
		}
	case s.sessions[id] != nil || s.landing[id]:
		err = errIDTaken
	}
	if err == nil {
		s.landing[id] = true
	}
	s.mu.Unlock()
	if err != nil {
		sess.Close()
		return "", err
	}

	s.journalOpenSession(id, eng, sess, x0, prefix)
	se := &session{id: id, s: sess}
	s.touch(se)
	s.mu.Lock()
	delete(s.landing, id)
	full := len(s.sessions) >= s.cfg.MaxSessions
	if !full {
		s.sessions[id] = se
	}
	s.mu.Unlock()
	if full {
		sess.Close()
		s.journalCloseSession(id)
		s.journalSyncRequest()
		return "", errCapacity
	}
	s.journalSyncRequest()
	return id, nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	se, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	s.touch(se)
	info := se.s.Info()
	info.ID = se.id
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	se, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	info := se.s.Info()
	info.ID = se.id
	info.Closed = true
	se.s.Close()
	s.journalCloseSession(se.id)
	s.journalSyncRequest()
	s.m.sessionsClosed.Add(1)
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	se, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	var req oic.StepRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if req.W != nil && req.WS != nil {
		s.fail(w, badRequest(`set either "w" or "ws", not both`))
		return
	}
	s.touch(se)
	ctx := r.Context()

	if req.WS != nil {
		start := s.cfg.Now()
		results, err := se.s.StepMany(ctx, req.WS)
		s.observeSteps(results, start)
		// Under the per-tick policy the batch is the sync unit: all of it
		// reaches disk before any of it is acknowledged.
		s.journalSyncRequest()
		if err != nil {
			// Partial progress plus the terminal error, per-step shaped.
			results = append(results, oic.StepResult{Error: err.Error()})
			s.countStepError(err)
		}
		writeJSON(w, statusForStepErr(err), oic.StepResponse{Results: results})
		return
	}

	start := s.cfg.Now()
	res, err := se.s.Step(ctx, req.W)
	if err != nil {
		s.countStepError(err)
		s.fail(w, err)
		return
	}
	s.observeSteps([]oic.StepResult{res}, start)
	s.journalSyncRequest()
	writeJSON(w, http.StatusOK, res)
}

// countStepError increments the error counter, except for client-side
// cancellations — a dropped connection is not a serving failure and must
// not inflate the error-rate metric.
func (s *Server) countStepError(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.m.stepErrors.Add(1)
}

// observeSteps folds executed steps into the step/skip/latency counters.
func (s *Server) observeSteps(results []oic.StepResult, start time.Time) {
	if len(results) == 0 {
		return
	}
	elapsed := s.cfg.Now().Sub(start)
	s.m.steps.Add(int64(len(results)))
	s.m.stepHist.Observe(elapsed.Seconds())
	var skips, forced int64
	for _, r := range results {
		if r.Error != "" {
			continue
		}
		if !r.Ran {
			skips++
		}
		if r.Forced {
			forced++
		}
	}
	s.m.skips.Add(skips)
	s.m.forced.Add(forced)
}

// ---- error mapping and JSON plumbing ----

var (
	errNotFound       = errors.New("session not found")
	errCapacity       = errors.New("session capacity reached")
	errEngineCapacity = errors.New("engine cache capacity reached (too many distinct configurations)")
	errIDTaken        = errors.New("session ID already held on this server")
	errTooLarge       = fmt.Errorf("request body too large (limit %d bytes)", oic.MaxRequestBytes)
)

type badRequestErr string

func badRequest(msg string) error     { return badRequestErr(msg) }
func (e badRequestErr) Error() string { return string(e) }

// statusAndCode maps API errors to HTTP status + wire code.
func statusAndCode(err error) (int, string) {
	var br badRequestErr
	switch {
	case errors.Is(err, errNotFound), errors.Is(err, oic.ErrUnknownPlant),
		errors.Is(err, oic.ErrUnknownScenario), errors.Is(err, oic.ErrUnknownMember):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, errCapacity), errors.Is(err, errEngineCapacity),
		errors.Is(err, errFleetCapacity), errors.Is(err, oic.ErrFleetFull):
		return http.StatusTooManyRequests, "capacity"
	case errors.Is(err, oic.ErrFleetOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, oic.ErrFleetClosed):
		return http.StatusGone, "fleet_closed"
	case errors.Is(err, errRecovering):
		// Journal recovery is replaying to head; the client should retry
		// once /readyz flips ready.
		return http.StatusServiceUnavailable, "recovering"
	case errors.Is(err, context.Canceled):
		// Client went away mid-step: not a server error. 499 is nginx's
		// "client closed request" convention.
		return 499, "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		// The server's own -request-timeout expired: a retryable server
		// condition (503), distinct from the 499 client-cancel above.
		return http.StatusServiceUnavailable, "deadline"
	case errors.Is(err, oic.ErrSessionClosed):
		return http.StatusGone, "session_closed"
	case errors.Is(err, errIDTaken):
		return http.StatusConflict, "id_taken"
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, oic.ErrSessionFrozen):
		// A migration handoff is in flight; the step may be retried — the
		// router repoints ownership once the target verifies.
		return http.StatusConflict, "frozen"
	case errors.Is(err, oic.ErrResumeMismatch):
		// The imported episode did not replay bit-for-bit; the session
		// must not serve.
		return http.StatusConflict, "resume_mismatch"
	case errors.Is(err, oic.ErrNotTracing):
		return http.StatusConflict, "not_tracing"
	case errors.Is(err, oic.ErrTraceLimit):
		return http.StatusConflict, "trace_limit"
	case errors.Is(err, oic.ErrTraceMismatch):
		return http.StatusBadRequest, "trace_mismatch"
	case errors.Is(err, oic.ErrUnsafe):
		return http.StatusUnprocessableEntity, "unsafe"
	case errors.Is(err, oic.ErrInfeasible):
		return http.StatusUnprocessableEntity, "infeasible"
	case errors.As(err, &br), errors.Is(err, oic.ErrBadDimension), errors.Is(err, oic.ErrUnknownPolicy),
		errors.Is(err, oic.ErrBadConfig):
		return http.StatusBadRequest, "bad_request"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// statusForStepErr keeps batch responses 200 on success and maps the
// terminal error otherwise (the body still carries partial results).
func statusForStepErr(err error) int {
	if err == nil {
		return http.StatusOK
	}
	st, _ := statusAndCode(err)
	return st
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	st, code := statusAndCode(err)
	// The trace middleware stamped the response header before the handler
	// ran; echoing it here puts the trace ID in every error body without
	// threading a context through every fail call site.
	writeJSON(w, st, oic.ErrorResponse{
		Error: err.Error(), Code: code,
		TraceID: w.Header().Get(obs.TraceHeader),
	})
}

// decodeJSON decodes a request body into dst with encoding/json's
// Decoder, which decodes the first JSON value and ignores what follows.
func decodeJSON(r *http.Request, dst any) error {
	return decodeBody(r, func(body []byte) error {
		return json.NewDecoder(bytes.NewReader(body)).Decode(dst)
	})
}

// decodeFleetTick decodes a fleet tick body in one pass
// (oic.DecodeFleetTickRequest).
func decodeFleetTick(r *http.Request, req *oic.FleetTickRequest) error {
	return decodeBody(r, func(body []byte) (err error) {
		*req, err = oic.DecodeFleetTickRequest(body)
		return err
	})
}

// decodeBody is every route's one body path: it reads the body whole
// under oic.MaxRequestBytes (readBody) and hands it to decode. So a body
// over the limit answers 413 too_large even when its first JSON value
// ends inside it, as oicd-router answers it. A body that reads empty,
// declared so or chunked, is the zero-value request, as oicd-router
// forwards it.
func decodeBody(r *http.Request, decode func(body []byte) error) error {
	if r.Body == nil || r.ContentLength == 0 {
		return nil // empty body = zero-value request
	}
	body, err := readBody(r)
	if err == nil && len(body) > 0 {
		err = decode(body)
	}
	if err != nil {
		return decodeError(err)
	}
	return nil
}

// readBody reads the whole body under oic.MaxRequestBytes, into one
// buffer when the request declares its Content-Length.
func readBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= oic.MaxRequestBytes {
		buf.Grow(int(n) + bytes.MinRead) // room for the read that sees io.EOF
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, oic.MaxRequestBytes))
	return buf.Bytes(), err
}

// decodeError maps a body read or decode failure to its answer: 413
// too_large past the limit, 400 with the decoder's first line otherwise.
func decodeError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return errTooLarge
	}
	return badRequest("invalid JSON: " + strings.SplitN(err.Error(), "\n", 2)[0])
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
