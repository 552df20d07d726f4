// Package journal is the runtime's write-ahead log (DESIGN.md §10): an
// append-only record of every durable state transition a serving node
// makes — session opened, step taken, session closed, and the fleet
// equivalents — written *before* the result is acknowledged to the
// client. Because a recorded step plus the PR 5 conformance-replay
// guarantee reconstructs a session byte-identically (the engine re-runs
// Algorithm 1 with the recorded skip/run choices and disturbances, which
// reproduces the LP warm-start chain exactly), replaying the journal to
// its head after a crash restores the server to the precise state the
// last acknowledged step left it in.
//
// The on-disk unit is a segment file: an 8-byte header (OICJ magic,
// version, reserved) followed by length-prefixed records, each closed by
// a CRC-32 (IEEE) of its own bytes. Segments rotate at a size threshold;
// the writer offers four fsync policies trading durability for
// throughput. The reader is strict per record (exact lengths, bounded
// dimensions, canonical encoding) but tolerant at the tail: a torn or
// corrupt record truncates the segment at the last good boundary —
// exactly what a power cut mid-write leaves behind — and is counted,
// never fatal. FuzzDecodeJournal pins that no byte prefix panics and
// that every accepted record re-encodes to identical bytes.
package journal

import (
	"fmt"
	"time"

	"oic/internal/trace"
)

// Version is the OICJ wire-format version. Readers accept exactly this
// version; bumping it is a wire-format change.
const Version = 2

// Format limits. Dimension and string bounds mirror the trace format so
// a journal can hold anything the trace recorder can; MaxPayload bounds
// what a hostile length prefix can make the reader allocate.
const (
	// MaxDim caps state/input dimensions (= trace.MaxDim).
	MaxDim = trace.MaxDim
	// MaxString caps id and fingerprint string lengths (= trace.MaxString).
	MaxString = trace.MaxString
	// MaxPayload caps one record's payload. The largest legal record (a
	// fleet-open with maximal strings) is under 5 KiB; 16 KiB leaves
	// headroom without letting a corrupt length prefix allocate much.
	MaxPayload = 1 << 14
)

// Type discriminates journal records.
type Type uint8

const (
	// TypeOpen opens a session: id, engine fingerprint, dims, x0.
	TypeOpen Type = 1
	// TypeStep appends one session step: id, dims, flags, w/u/x.
	TypeStep Type = 2
	// TypeClose closes a session (client delete or TTL eviction — never
	// written on server shutdown, so live sessions survive restarts).
	TypeClose Type = 3
	// TypeFleetOpen opens a fleet: id, engine fingerprint, dims, and the
	// fleet config (budget, workers, max sessions, trace and degrade
	// flags, tick deadline, elastic bounds).
	TypeFleetOpen Type = 4
	// TypeFleetAdmit admits a member: fleet id, member index, x0.
	TypeFleetAdmit Type = 5
	// TypeFleetStep appends one member step.
	TypeFleetStep Type = 6
	// TypeFleetEvict removes a member (client release or step error).
	TypeFleetEvict Type = 7
	// TypeFleetClose closes a fleet.
	TypeFleetClose Type = 8
)

func (t Type) String() string {
	switch t {
	case TypeOpen:
		return "open"
	case TypeStep:
		return "step"
	case TypeClose:
		return "close"
	case TypeFleetOpen:
		return "fleet-open"
	case TypeFleetAdmit:
		return "fleet-admit"
	case TypeFleetStep:
		return "fleet-step"
	case TypeFleetEvict:
		return "fleet-evict"
	case TypeFleetClose:
		return "fleet-close"
	}
	return fmt.Sprintf("type-%d", uint8(t))
}

// Record is one journal entry. It is a tagged union: Type selects which
// fields are meaningful (and encoded) — see the codec for the per-type
// wire layouts. Step records carry the runtime's step value itself, in
// the trace step encoding.
type Record struct {
	Type Type

	// ID names the session or fleet. All record types carry it.
	ID string

	// Member is the fleet member index (fleet-admit/step/evict).
	Member uint32

	// Meta is the engine-configuration fingerprint (open/fleet-open).
	Meta trace.Meta

	// NX, NU are the plant dimensions (open, step, fleet-open,
	// fleet-admit [NX only], fleet-step). Records are self-describing so
	// the reader never needs cross-record context to bound a decode.
	NX, NU int

	// X0 is the initial state (open, fleet-admit).
	X0 []float64

	// Budget, Workers, MaxSessions are the scheduler shape (fleet-open).
	Budget, Workers, MaxSessions int
	// Traced, Degrade, TickDeadline and the elastic bounds ElasticMin,
	// ElasticMax and TargetMargin are the rest of the fleet's config
	// (fleet-open); ElasticMax 0 means a static budget.
	Traced, Degrade        bool
	TickDeadline           time.Duration
	ElasticMin, ElasticMax int
	TargetMargin           time.Duration

	// Step is the executed step (step, fleet-step).
	trace.Step
}

// Validate checks the structural invariants of a record for its type:
// id present and bounded, dimensions in range, slice lengths consistent.
// AppendRecord runs it before encoding and DecodeRecord after decoding.
func (r *Record) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("journal: %s record with empty id", r.Type)
	}
	if len(r.ID) > MaxString {
		return fmt.Errorf("journal: id exceeds %d bytes", MaxString)
	}
	checkDims := func() error {
		if r.NX < 1 || r.NX > MaxDim {
			return fmt.Errorf("journal: nx %d outside [1, %d]", r.NX, MaxDim)
		}
		if r.NU < 1 || r.NU > MaxDim {
			return fmt.Errorf("journal: nu %d outside [1, %d]", r.NU, MaxDim)
		}
		return nil
	}
	checkMeta := func() error {
		if r.Meta.Plant == "" {
			return fmt.Errorf("journal: %s record with empty plant", r.Type)
		}
		for _, s := range []string{r.Meta.Plant, r.Meta.Scenario, r.Meta.Policy} {
			if len(s) > MaxString {
				return fmt.Errorf("journal: fingerprint string exceeds %d bytes", MaxString)
			}
		}
		if r.Meta.Memory < 0 || r.Meta.Memory > MaxDim {
			return fmt.Errorf("journal: memory %d outside [0, %d]", r.Meta.Memory, MaxDim)
		}
		if r.Meta.TrainEpisodes < 0 || r.Meta.TrainSteps < 0 {
			return fmt.Errorf("journal: negative training budget")
		}
		return nil
	}
	switch r.Type {
	case TypeOpen:
		if err := checkDims(); err != nil {
			return err
		}
		if err := checkMeta(); err != nil {
			return err
		}
		if len(r.X0) != r.NX {
			return fmt.Errorf("journal: x0 dim %d, want %d", len(r.X0), r.NX)
		}
	case TypeStep, TypeFleetStep:
		if err := checkDims(); err != nil {
			return err
		}
		if err := trace.CheckStep(&r.Step, r.NX, r.NU); err != nil {
			return fmt.Errorf("journal: %s record: %w", r.Type, err)
		}
	case TypeClose, TypeFleetClose:
		// id only
	case TypeFleetOpen:
		if err := checkDims(); err != nil {
			return err
		}
		if err := checkMeta(); err != nil {
			return err
		}
		if r.Budget < 0 || r.Workers < 0 || r.MaxSessions < 0 || r.TickDeadline < 0 ||
			r.ElasticMin < 0 || r.TargetMargin < 0 {
			return fmt.Errorf("journal: negative fleet config")
		}
		if r.ElasticMax == 0 && (r.ElasticMin != 0 || r.TargetMargin != 0) {
			return fmt.Errorf("journal: elastic bounds on a static fleet")
		}
		if r.ElasticMin > r.ElasticMax {
			return fmt.Errorf("journal: elastic min %d > max %d", r.ElasticMin, r.ElasticMax)
		}
	case TypeFleetAdmit:
		if r.NX < 1 || r.NX > MaxDim {
			return fmt.Errorf("journal: nx %d outside [1, %d]", r.NX, MaxDim)
		}
		if len(r.X0) != r.NX {
			return fmt.Errorf("journal: x0 dim %d, want %d", len(r.X0), r.NX)
		}
	case TypeFleetEvict:
		// id + member
	default:
		return fmt.Errorf("journal: unknown record type %d", r.Type)
	}
	return nil
}
