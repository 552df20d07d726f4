package oic

// Wire types: the JSON schema shared by the in-process facade and the oicd
// HTTP server. Every type here is plain data — no internal types — so
// external clients can vendor this file's shapes in any language.

import "time"

// MaxRequestBytes bounds a request body on oicd and oicd-router alike;
// both answer a larger one with 413 too_large.
const MaxRequestBytes = 16 << 20

// ScenarioInfo describes one plant scenario.
type ScenarioInfo struct {
	ID          string `json:"id"`
	Description string `json:"description,omitempty"`
	Detail      string `json:"detail,omitempty"`
}

// LadderInfo is an ordered scenario family (one experimental sweep).
type LadderInfo struct {
	Name      string         `json:"name"`
	Title     string         `json:"title,omitempty"`
	Scenarios []ScenarioInfo `json:"scenarios"`
}

// PlantInfo describes a registered plant: the GET /v1/plants payload.
type PlantInfo struct {
	Name         string       `json:"name"`
	Description  string       `json:"description"`
	CostLabel    string       `json:"cost_label"`
	EpisodeSteps int          `json:"episode_steps"`
	Headline     ScenarioInfo `json:"headline"`
	Ladders      []LadderInfo `json:"ladders,omitempty"`
}

// CreateSessionRequest opens a control session: POST /v1/sessions. X0 may
// be omitted, in which case the server samples an initial state from the
// strengthened safe set X′ with Seed. Trace records the episode from the
// first step (read back via GET /v1/sessions/{id}/trace); the server caps
// a traced session's length, after which steps fail with 409 trace_limit.
type CreateSessionRequest struct {
	Plant    string      `json:"plant"`
	Scenario string      `json:"scenario,omitempty"`
	Policy   string      `json:"policy,omitempty"`
	Memory   int         `json:"memory,omitempty"`
	Train    TrainConfig `json:"train,omitempty"`
	X0       []float64   `json:"x0,omitempty"`
	Seed     int64       `json:"seed,omitempty"`
	Trace    bool        `json:"trace,omitempty"`
}

// StepRequest advances a session: POST /v1/sessions/{id}/step. Exactly one
// of W (single step) or WS (batched steps, applied in order) is set; an
// empty body steps once with the zero disturbance.
type StepRequest struct {
	W  []float64   `json:"w,omitempty"`
	WS [][]float64 `json:"ws,omitempty"`
}

// StepResult is one executed step of Algorithm 1 on the wire.
type StepResult struct {
	T      int       `json:"t"`               // step index (0-based)
	Level  string    `json:"level"`           // monitor classification of the pre-step state
	Ran    bool      `json:"ran"`             // effective z(t): κ computed and applied
	Forced bool      `json:"forced"`          // monitor overrode the policy (x ∉ X′)
	U      []float64 `json:"u"`               // applied input (zeros when skipped)
	X      []float64 `json:"x"`               // successor state
	Error  string    `json:"error,omitempty"` // batch-path per-step failure
}

// StepResponse is the batched-step payload ({"ws": ...} requests).
type StepResponse struct {
	Results []StepResult `json:"results"`
}

// SessionInfo is a session snapshot: create/GET responses. Scenario,
// Policy, and Memory are the resolved values (never the default
// shorthands) and NU the plant's input dimension, so a front end holding
// only wire responses can reconstruct the session's exact trace
// fingerprint — what the oicd-router's shadow recording relies on.
type SessionInfo struct {
	ID         string    `json:"id,omitempty"` // assigned by the server
	Plant      string    `json:"plant"`
	Scenario   string    `json:"scenario"`
	Policy     string    `json:"policy"`
	Memory     int       `json:"memory,omitempty"` // resolved disturbance-memory window
	NU         int       `json:"nu,omitempty"`     // input dimension (NX is len(X))
	T          int       `json:"t"`
	X          []float64 `json:"x"`
	Level      string    `json:"level"`
	Skips      int       `json:"skips"`
	Runs       int       `json:"runs"`
	Forced     int       `json:"forced"`
	Violations int       `json:"violations"`
	Degraded   int       `json:"degraded,omitempty"` // κ failures downgraded to certified skips
	Energy     float64   `json:"energy"`
	Frozen     bool      `json:"frozen,omitempty"` // migration handoff in progress; steps 409
	Closed     bool      `json:"closed"`
}

// CreateFleetRequest opens a fleet: POST /v1/fleets. The engine fields
// (Plant … Train) match CreateSessionRequest; the scheduling fields
// configure the fleet. Size members are admitted immediately with initial
// states sampled from X′ under Seed (0 means start empty and admit via
// POST /v1/fleets/{id}/sessions).
type CreateFleetRequest struct {
	Plant    string      `json:"plant"`
	Scenario string      `json:"scenario,omitempty"`
	Policy   string      `json:"policy,omitempty"`
	Memory   int         `json:"memory,omitempty"`
	Train    TrainConfig `json:"train,omitempty"`

	ComputeBudget int   `json:"compute_budget,omitempty"`
	Workers       int   `json:"workers,omitempty"`
	MaxSessions   int   `json:"max_sessions,omitempty"`
	Size          int   `json:"size,omitempty"`
	Seed          int64 `json:"seed,omitempty"`

	// Degrade and TickDeadline map to the FleetConfig fields of the same
	// names: graceful degradation of optional κ failures into certified
	// skips, and a per-tick wall-time bound. Journaled with the fleet, so
	// journal recovery re-creates the fleet with them.
	Degrade      bool          `json:"degrade,omitempty"`
	TickDeadline time.Duration `json:"tick_deadline_ns,omitempty"`

	// Elastic maps to FleetConfig.Elastic: the deadline-margin budget
	// controller. Requires tick_deadline_ns > 0. The bounds are journaled,
	// so a recovered fleet stays elastic; the controller's state is not,
	// and it restarts from compute_budget (replay re-executes recorded
	// choices, so no budget history is needed).
	Elastic *ElasticConfig `json:"elastic,omitempty"`

	// Trace records every member's episode (FleetConfig.Trace, capped at
	// the server's trace limit), read back via
	// GET /v1/fleets/{id}/sessions/{mid}/trace. oicd-router forwards it
	// as sent, and it is journaled, so a fleet records only when asked:
	// routed or not, and before or after a restart.
	Trace bool `json:"trace,omitempty"`
}

// FleetInfo is a fleet snapshot: create/GET/DELETE responses.
type FleetInfo struct {
	ID string `json:"id,omitempty"` // assigned by the server
	FleetStats
	// MaxSkipBudget is the engine's compiled S_k chain depth.
	MaxSkipBudget int `json:"max_skip_budget,omitempty"`
}

// FleetTickRequest advances a fleet: POST /v1/fleets/{id}/tick. Ticks ≤ 1
// runs one tick with the given per-member disturbances (member ID → w,
// omitted members get zero); Ticks > 1 runs that many zero-disturbance
// ticks and requires WS to be empty.
type FleetTickRequest struct {
	Ticks int    `json:"ticks,omitempty"`
	WS    TickWS `json:"ws,omitempty"`
}

// TickWS is a fleet tick's per-member disturbances: member ID → w, the
// JSON object {"<id>": [w₀, w₁, …], …}. It is a plain map on the wire
// and in Go (a map[int][]float64 assigns to it); only its decoder is its
// own (tickws.go), and it accepts and yields exactly what encoding/json
// does for a map[int][]float64.
type TickWS map[int][]float64

// FleetTickResponse carries one TickReport per executed tick. When a
// multi-tick request fails partway, Reports holds the ticks that ran and
// Error carries the terminal failure (the HTTP status reflects it too),
// mirroring the batched-step convention.
type FleetTickResponse struct {
	Reports []TickReport `json:"reports"`
	Error   string       `json:"error,omitempty"`
}

// FleetAdmitRequest admits one member: POST /v1/fleets/{id}/sessions. X0
// may be omitted, in which case the server samples from X′ with Seed.
type FleetAdmitRequest struct {
	X0   []float64 `json:"x0,omitempty"`
	Seed int64     `json:"seed,omitempty"`
}

// TraceResponse wraps a session's recorded episode:
// GET /v1/sessions/{id}/trace (the default JSON form; ?format=binary
// streams the canonical binary encoding instead).
type TraceResponse struct {
	ID    string `json:"id"`
	Trace *Trace `json:"trace"`
}

// ReplayRequest replays a recorded episode: POST /v1/replay. Exactly one
// of Trace (JSON form) or TraceBin (the canonical binary encoding,
// base64 on the wire) carries the episode; the remaining fields mirror
// ReplayOptions. The response is a ReplayReport.
type ReplayRequest struct {
	Trace         *Trace `json:"trace,omitempty"`
	TraceBin      []byte `json:"trace_bin,omitempty"`
	Policy        string `json:"policy,omitempty"`
	ComputeBudget int    `json:"compute_budget,omitempty"`
	Audit         bool   `json:"audit,omitempty"`
	IncludeTrace  bool   `json:"include_trace,omitempty"`
}

// ResumeSessionRequest imports a recorded episode as a live session:
// POST /v1/sessions/resume. Exactly one of Trace (JSON form) or TraceBin
// (canonical binary, base64 on the wire) carries the episode; the server
// rebuilds the engine from the trace's fingerprint, replays the episode
// to head with bit-exact verification (409 resume_mismatch on any
// divergence), and registers the session — the landing half of live
// migration and node failover. ID, when set, is the session ID the
// landing keeps (an "s-…" ID another server minted); the server refuses
// an ID it already holds or is landing with 409 id_taken. Empty mints a
// fresh one.
type ResumeSessionRequest struct {
	ID       string `json:"id,omitempty"`
	Trace    *Trace `json:"trace,omitempty"`
	TraceBin []byte `json:"trace_bin,omitempty"`
}

// ErrorResponse is the uniform error payload of the oicd server.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"` // bad_request | not_found | unsafe | infeasible | session_closed | capacity
	// TraceID echoes the request's X-Oic-Trace-Id so a failing client can
	// quote the exact ID that correlates router and shard logs.
	TraceID string `json:"trace_id,omitempty"`
	// Node names the shard that produced (or failed to produce) the
	// response when the error passed through oicd-router.
	Node string `json:"node,omitempty"`
}
