package journal

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"oic/internal/trace"
)

// SessionState is one session reconstructed from the journal: its
// engine fingerprint, initial state, and every acknowledged step, in
// order — exactly the material replay-to-head needs.
type SessionState struct {
	ID     string
	Meta   trace.Meta
	NX, NU int
	X0     []float64
	Steps  []trace.Step
	// Closed marks a session the journal saw explicitly closed (client
	// delete or TTL eviction); recovery skips resurrecting it.
	Closed bool
}

// MemberState is one fleet member's reconstructed history.
type MemberState struct {
	Member uint32
	X0     []float64
	Steps  []trace.Step
	// Evicted marks a member released (or error-evicted) before the
	// crash; recovery does not re-admit it.
	Evicted bool
}

// FleetState is one fleet reconstructed from the journal.
type FleetState struct {
	ID          string
	Meta        trace.Meta
	NX, NU      int
	Budget      int
	Workers     int
	MaxSessions int
	Members     []*MemberState // admission order
	Closed      bool

	byMember map[uint32]*MemberState
}

// Recovery is the replayable image of a journal directory.
type Recovery struct {
	Sessions []*SessionState // open order
	Fleets   []*FleetState   // open order

	Segments  int // segment files read
	Records   int // records applied
	TornTails int // segments truncated at a torn or corrupt record
	Orphans   int // records referencing an id the journal never opened
}

// Live counts sessions and fleets that were open at the journal head.
func (rv *Recovery) Live() (sessions, fleets int) {
	for _, s := range rv.Sessions {
		if !s.Closed {
			sessions++
		}
	}
	for _, f := range rv.Fleets {
		if !f.Closed {
			fleets++
		}
	}
	return
}

// Trace assembles the session's history as a replayable trace. Energy
// is accumulated per step with the runtime's own Norm1, in its float
// order, so the assembled trace passes the engine's conformance checks.
func (s *SessionState) Trace() *trace.Trace {
	return assembleTrace(s.Meta, s.NX, s.NU, s.X0, s.Steps)
}

// Trace assembles one member's history against the fleet's fingerprint.
func (f *FleetState) Trace(m *MemberState) *trace.Trace {
	return assembleTrace(f.Meta, f.NX, f.NU, m.X0, m.Steps)
}

func assembleTrace(meta trace.Meta, nx, nu int, x0 []float64, steps []trace.Step) *trace.Trace {
	t := &trace.Trace{
		Version: trace.Version,
		Meta:    meta,
		NX:      nx,
		NU:      nu,
		X0:      x0,
		Steps:   steps,
	}
	for i := range steps {
		t.Energy += steps[i].U.Norm1()
	}
	return t
}

// Recover reads every segment in dir in write order and folds the
// record stream into per-session and per-fleet state. Torn tails
// truncate their segment and are counted; records for ids the journal
// never opened (possible when older segments were pruned) are counted
// as orphans and skipped. Only an unreadable directory or file is an
// error — a journal that decodes to nothing is an empty Recovery.
func Recover(dir string) (*Recovery, error) {
	segs, err := Segments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &Recovery{}, nil
		}
		return nil, err
	}
	rv := &Recovery{}
	sessions := map[string]*SessionState{}
	fleets := map[string]*FleetState{}
	for _, path := range segs {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if len(b) == 0 {
			// A crash between create and header write leaves a zero-byte
			// segment; it holds no records by construction.
			rv.Segments++
			rv.TornTails++
			continue
		}
		recs, torn, err := ReadSegment(b)
		if err != nil {
			return nil, fmt.Errorf("journal: %s: %w", path, err)
		}
		rv.Segments++
		if torn {
			rv.TornTails++
		}
		for _, r := range recs {
			rv.Records++
			rv.apply(r, sessions, fleets)
		}
	}
	return rv, nil
}

func (rv *Recovery) apply(r *Record, sessions map[string]*SessionState, fleets map[string]*FleetState) {
	switch r.Type {
	case TypeOpen:
		s := &SessionState{ID: r.ID, Meta: r.Meta, NX: r.NX, NU: r.NU, X0: r.X0}
		sessions[r.ID] = s
		rv.Sessions = append(rv.Sessions, s)
	case TypeStep:
		s := sessions[r.ID]
		if s == nil || s.Closed || s.NX != r.NX || s.NU != r.NU || len(s.Steps) >= trace.MaxSteps {
			rv.Orphans++
			return
		}
		s.Steps = append(s.Steps, r.Step)
	case TypeClose:
		s := sessions[r.ID]
		if s == nil {
			rv.Orphans++
			return
		}
		s.Closed = true
	case TypeFleetOpen:
		f := &FleetState{
			ID: r.ID, Meta: r.Meta, NX: r.NX, NU: r.NU,
			Budget: r.Budget, Workers: r.Workers, MaxSessions: r.MaxSessions,
			byMember: map[uint32]*MemberState{},
		}
		fleets[r.ID] = f
		rv.Fleets = append(rv.Fleets, f)
	case TypeFleetAdmit:
		f := fleets[r.ID]
		if f == nil || f.Closed || f.NX != r.NX {
			rv.Orphans++
			return
		}
		m := &MemberState{Member: r.Member, X0: r.X0}
		f.byMember[r.Member] = m
		f.Members = append(f.Members, m)
	case TypeFleetStep:
		f := fleets[r.ID]
		if f == nil || f.Closed || f.NX != r.NX || f.NU != r.NU {
			rv.Orphans++
			return
		}
		m := f.byMember[r.Member]
		if m == nil || m.Evicted || len(m.Steps) >= trace.MaxSteps {
			rv.Orphans++
			return
		}
		m.Steps = append(m.Steps, r.Step)
	case TypeFleetEvict:
		f := fleets[r.ID]
		if f == nil {
			rv.Orphans++
			return
		}
		if m := f.byMember[r.Member]; m != nil {
			m.Evicted = true
		} else {
			rv.Orphans++
		}
	case TypeFleetClose:
		f := fleets[r.ID]
		if f == nil {
			rv.Orphans++
			return
		}
		f.Closed = true
	}
}

// SortMembers orders each fleet's members by index; Fleet recovery
// re-admits in index order so recovered member ids match the originals.
func (rv *Recovery) SortMembers() {
	for _, f := range rv.Fleets {
		sort.Slice(f.Members, func(i, j int) bool { return f.Members[i].Member < f.Members[j].Member })
	}
}
