package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"oic/internal/journal"
	"oic/internal/obs"
	"oic/pkg/oic"
)

// Write-ahead journal wiring (DESIGN.md §10). With -journal-dir set, every
// durable state transition — session open, acknowledged step, close, and
// the fleet equivalents — is appended to an OICJ segment *before* the
// response leaves the server (the step hooks fire inside the session lock,
// ahead of the result). On restart, BeginJournalRecovery folds the journal
// back into live state: engines are rebuilt from the journaled config
// fingerprints (warm via the artifact store), every open session and fleet
// member is replayed to its head with bit-exact conformance checking
// (oic.ResumeSession / Fleet.ResumeMember), and /readyz holds 503 until
// the server again serves exactly what it had acknowledged.
//
// Journal append failures degrade durability, never availability: they are
// counted (oicd_journal_errors_total) and the request proceeds. A server
// shutdown closes the journal *without* writing close records, so live
// sessions survive restarts by design.

// errRecovering gates mutating creation endpoints while replay-to-head
// runs; clients retry after /readyz flips ready.
var errRecovering = errors.New("recovering sessions from journal; retry shortly")

// OpenJournal attaches a write-ahead journal. Call before serving traffic
// and after SetFaults (the injector threads into journal I/O). Recovery of
// a previous journal in the same directory is separate — BeginJournalRecovery —
// and safe in either order: the writer never reads old segments, and it
// opens a fresh segment lazily on first append.
func (s *Server) OpenJournal(opts journal.Options) error {
	if opts.Faults == nil {
		opts.Faults = s.faults
	}
	if opts.AppendHist == nil {
		opts.AppendHist = s.m.journalAppendHist
	}
	if opts.SyncHist == nil {
		opts.SyncHist = s.m.journalSyncHist
	}
	w, err := journal.OpenWriter(opts)
	if err != nil {
		return err
	}
	s.jw = w
	s.jopts = opts
	return nil
}

// JournalStats snapshots the journal writer's counters (zero value when
// no journal is attached).
func (s *Server) JournalStats() journal.WriterStats {
	if s.jw == nil {
		return journal.WriterStats{}
	}
	return s.jw.Stats()
}

// Recovering reports whether journal replay-to-head is still running.
func (s *Server) Recovering() bool { return s.recovering.Load() }

// journalAppend appends one record, counting (not failing on) errors.
func (s *Server) journalAppend(r *journal.Record) {
	if s.jw == nil {
		return
	}
	if err := s.jw.Append(r); err != nil {
		s.m.journalErrors.Add(1)
	}
}

// journalSyncRequest fsyncs at a request boundary under the per-tick
// policy (per-step syncs happen inside Append; the other policies manage
// themselves).
func (s *Server) journalSyncRequest() {
	if s.jw == nil || s.jopts.Policy != journal.SyncEveryTick {
		return
	}
	if err := s.jw.Sync(); err != nil {
		s.m.journalErrors.Add(1)
	}
}

// journalOpenSession writes the session-open record and installs the
// write-ahead step hook. Called with the ID reserved but before the first
// step can execute.
func (s *Server) journalOpenSession(id string, eng *oic.Engine, sess *oic.Session, x0 []float64) {
	if s.jw == nil {
		return
	}
	s.journalAppend(&journal.Record{
		Type: journal.TypeOpen, ID: id, Meta: eng.TraceMeta(),
		NX: eng.NX(), NU: eng.NU(), X0: x0,
	})
	s.hookSession(id, eng, sess)
}

// hookSession installs the step hook alone — recovery reuses it for
// resumed sessions, whose open records already live in the journal.
func (s *Server) hookSession(id string, eng *oic.Engine, sess *oic.Session) {
	if s.jw == nil {
		return
	}
	nx, nu := eng.NX(), eng.NU()
	sess.SetStepHook(func(ev oic.StepEvent) {
		s.journalAppend(&journal.Record{Type: journal.TypeStep, ID: id, NX: nx, NU: nu, Step: ev})
	})
}

// journalImportSession journals a migrated-in session: the open record
// plus one step record per replayed prefix step, then the live hook. The
// source node's journal holds this history too, but it is unreachable
// from here (and may be destroyed) — an import is durable only if the
// whole episode lands in *this* node's journal before acknowledgment.
func (s *Server) journalImportSession(id string, eng *oic.Engine, sess *oic.Session, t *oic.Trace) {
	if s.jw == nil {
		return
	}
	nx, nu := eng.NX(), eng.NU()
	s.journalAppend(&journal.Record{
		Type: journal.TypeOpen, ID: id, Meta: eng.TraceMeta(),
		NX: nx, NU: nu, X0: t.X0,
	})
	for _, st := range t.Steps {
		s.journalAppend(&journal.Record{Type: journal.TypeStep, ID: id, NX: nx, NU: nu, Step: st})
	}
	s.hookSession(id, eng, sess)
}

// journalImportMember journals a migrated-in fleet member: the admit
// record under its preserved ID plus its replayed prefix. The member
// step hook is already installed fleet-wide.
func (s *Server) journalImportMember(fleetID string, member int, eng *oic.Engine, t *oic.Trace) {
	if s.jw == nil {
		return
	}
	nx, nu := eng.NX(), eng.NU()
	s.journalAppend(&journal.Record{
		Type: journal.TypeFleetAdmit, ID: fleetID, Member: uint32(member), NX: nx, X0: t.X0,
	})
	for _, st := range t.Steps {
		s.journalAppend(&journal.Record{
			Type: journal.TypeFleetStep, ID: fleetID, Member: uint32(member), NX: nx, NU: nu, Step: st,
		})
	}
}

// journalCloseSession records a client delete or TTL eviction (never a
// shutdown — live sessions must survive restarts).
func (s *Server) journalCloseSession(id string) {
	if s.jw == nil {
		return
	}
	s.journalAppend(&journal.Record{Type: journal.TypeClose, ID: id})
}

// journalOpenFleet writes the fleet-open record plus one admit record per
// already-admitted member (create-time Size admissions), and installs the
// member step hook.
func (s *Server) journalOpenFleet(id string, eng *oic.Engine, f *oic.Fleet, x0s [][]float64) {
	if s.jw == nil {
		return
	}
	cfg := f.Config()
	nx, nu := eng.NX(), eng.NU()
	s.journalAppend(&journal.Record{
		Type: journal.TypeFleetOpen, ID: id, Meta: eng.TraceMeta(), NX: nx, NU: nu,
		Budget: cfg.ComputeBudget, Workers: cfg.Workers, MaxSessions: cfg.MaxSessions,
	})
	for i, x0 := range x0s {
		s.journalAppend(&journal.Record{
			Type: journal.TypeFleetAdmit, ID: id, Member: uint32(i), NX: nx, X0: x0,
		})
	}
	s.hookFleet(id, eng, f)
}

func (s *Server) hookFleet(id string, eng *oic.Engine, f *oic.Fleet) {
	if s.jw == nil {
		return
	}
	nx, nu := eng.NX(), eng.NU()
	f.SetStepHook(func(member int, ev oic.StepEvent) {
		s.journalAppend(&journal.Record{
			Type: journal.TypeFleetStep, ID: id, Member: uint32(member), NX: nx, NU: nu, Step: ev,
		})
	})
}

func (s *Server) journalAdmit(id string, member int, nx int, x0 []float64) {
	if s.jw == nil {
		return
	}
	s.journalAppend(&journal.Record{
		Type: journal.TypeFleetAdmit, ID: id, Member: uint32(member), NX: nx, X0: x0,
	})
}

func (s *Server) journalEvict(id string, member int) {
	if s.jw == nil {
		return
	}
	s.journalAppend(&journal.Record{Type: journal.TypeFleetEvict, ID: id, Member: uint32(member)})
}

func (s *Server) journalCloseFleet(id string) {
	if s.jw == nil {
		return
	}
	s.journalAppend(&journal.Record{Type: journal.TypeFleetClose, ID: id})
}

// RecoveryReport summarizes one journal replay-to-head.
type RecoveryReport struct {
	Sessions      int // sessions resumed live
	Fleets        int // fleets resumed live
	Members       int // fleet members resumed live
	StepsReplayed int // total steps re-executed (and conformance-verified)
	Skipped       int // journaled objects seen closed/evicted — not resurrected
	Failed        int // objects that failed to resume (engine build or replay divergence)

	Segments  int // segment files read
	Records   int // records applied
	TornTails int // segments truncated at a torn or corrupt tail
	Orphans   int // records referencing unknown ids
}

// BeginJournalRecovery flips the server into the recovering state
// (readyz 503, creation endpoints 503) and returns the closure that
// replays the journal at dir to its head; run it on a background
// goroutine and let it flip readiness back when done. Split this way —
// mirroring BeginPreload — so callers observe 503 from the moment the
// server is constructed, with no startup race window.
//
// Resumed objects keep their pre-crash IDs; the ID counters advance past
// every journaled ID (including closed ones) so post-recovery creations
// never collide.
func (s *Server) BeginJournalRecovery(dir string) (run func() (RecoveryReport, error), err error) {
	if dir == "" {
		return nil, fmt.Errorf("server: journal recovery requires a journal directory")
	}
	s.recovering.Store(true)
	return func() (RecoveryReport, error) {
		defer s.recovering.Store(false)
		var rep RecoveryReport
		// Recovery is phase-timed: scan (read + validate segments),
		// rebuild (materialize every distinct engine, warm via the
		// artifact store), replay (resume each object to its head). The
		// span lands in /v1/debug/ops and each phase in
		// oicd_recovery_phase_seconds, so a slow boot is attributable.
		span := obs.StartSpan("recovery", dir, "", s.ops, s.m.recoveryPhases)
		span.Phase("scan")
		rv, err := journal.Recover(dir)
		if err != nil {
			span.End(err)
			s.log.Error("journal recovery failed", "dir", dir, "error", err)
			return rep, err
		}
		rv.SortMembers()
		rep.Segments, rep.Records = rv.Segments, rv.Records
		rep.TornTails, rep.Orphans = rv.TornTails, rv.Orphans
		s.m.journalTornTails.Store(int64(rv.TornTails))
		s.m.journalOrphans.Store(int64(rv.Orphans))

		// Rebuild: prefetch every distinct engine configuration once,
		// single-flight through the engine cache, so the replay phase
		// below measures replay work, not engine construction.
		span.Phase("rebuild")
		seen := map[string]bool{}
		prefetch := func(cfg oic.Config) {
			cfg = cfg.Canonical()
			if key := cfg.Fingerprint(); !seen[key] {
				seen[key] = true
				_, _ = s.engine(cfg)
			}
		}
		for _, st := range rv.Sessions {
			if !st.Closed {
				prefetch(oic.ConfigFromTrace(st.Trace()))
			}
		}
		for _, fs := range rv.Fleets {
			if !fs.Closed {
				prefetch(fleetRecoveryConfig(fs))
			}
		}

		span.Phase("replay")
		var maxSID, maxFID uint64
		for _, st := range rv.Sessions {
			if n, ok := numericID(st.ID, "s-"); ok && n > maxSID {
				maxSID = n
			}
			if st.Closed {
				rep.Skipped++
				continue
			}
			if s.resumeSession(st) {
				rep.Sessions++
				rep.StepsReplayed += len(st.Steps)
			} else {
				rep.Failed++
			}
		}
		for _, fs := range rv.Fleets {
			if n, ok := numericID(fs.ID, "f-"); ok && n > maxFID {
				maxFID = n
			}
			if fs.Closed {
				rep.Skipped++
				continue
			}
			s.resumeFleet(fs, &rep)
		}
		s.mu.Lock()
		if maxSID > s.nextID {
			s.nextID = maxSID
		}
		if maxFID > s.nextFleetID {
			s.nextFleetID = maxFID
		}
		s.mu.Unlock()
		s.m.recoveredSessions.Store(int64(rep.Sessions))
		s.m.recoveredFleets.Store(int64(rep.Fleets))
		s.m.recoveredMembers.Store(int64(rep.Members))
		s.m.recoveredSteps.Store(int64(rep.StepsReplayed))
		s.m.recoveryFailed.Store(int64(rep.Failed))
		span.End(nil)
		s.log.Info("journal recovery complete",
			"dir", dir, "sessions", rep.Sessions, "fleets", rep.Fleets,
			"members", rep.Members, "steps_replayed", rep.StepsReplayed,
			"skipped", rep.Skipped, "failed", rep.Failed,
			"torn_tails", rep.TornTails, "orphans", rep.Orphans)
		return rep, nil
	}, nil
}

// fleetRecoveryConfig is the engine configuration a journaled fleet
// resumes under (shared with resumeFleet).
func fleetRecoveryConfig(fs *journal.FleetState) oic.Config {
	return oic.Config{
		Plant: fs.Meta.Plant, Scenario: fs.Meta.Scenario, Policy: fs.Meta.Policy,
		Memory: fs.Meta.Memory,
		Train: oic.TrainConfig{
			Episodes: fs.Meta.TrainEpisodes, Steps: fs.Meta.TrainSteps, Seed: fs.Meta.TrainSeed,
		},
	}
}

// resumeSession rebuilds one journaled session at its head. Recovered
// sessions always record their episode (the journal held the complete
// history anyway), capped like any traced session.
func (s *Server) resumeSession(st *journal.SessionState) bool {
	t := st.Trace()
	eng, err := s.engine(oic.ConfigFromTrace(t))
	if err != nil {
		return false
	}
	sess, err := eng.ResumeSession(t, oic.ResumeOptions{Trace: true, TraceLimit: s.cfg.TraceLimit})
	if err != nil {
		return false
	}
	se := &session{id: st.ID, s: sess}
	s.touch(se)
	// Hook before publishing: once the id is in s.sessions it is
	// steppable, and a step landing before the hook is installed would be
	// acknowledged without being journaled. (The open record already lives
	// in the journal being recovered; a hook on a session we then discard
	// never fires.)
	s.hookSession(st.ID, eng, sess)
	s.mu.Lock()
	_, exists := s.sessions[st.ID]
	full := len(s.sessions) >= s.cfg.MaxSessions
	if !exists && !full {
		s.sessions[st.ID] = se
	}
	s.mu.Unlock()
	if exists || full {
		sess.Close()
		return false
	}
	return true
}

// resumeFleet rebuilds one journaled fleet: same scheduler shape, every
// live member replayed to head under its old ID, evicted IDs reserved.
func (s *Server) resumeFleet(fs *journal.FleetState, rep *RecoveryReport) {
	eng, err := s.engine(fleetRecoveryConfig(fs))
	if err != nil {
		rep.Failed++
		return
	}
	f, err := eng.NewFleet(oic.FleetConfig{
		ComputeBudget: fs.Budget, Workers: fs.Workers, MaxSessions: fs.MaxSessions,
		Trace: true, TraceLimit: s.cfg.TraceLimit,
	})
	if err != nil {
		rep.Failed++
		return
	}
	next := 0
	for _, m := range fs.Members {
		if int(m.Member)+1 > next {
			next = int(m.Member) + 1
		}
		if m.Evicted {
			rep.Skipped++
			continue
		}
		if err := f.ResumeMember(int(m.Member), fs.Trace(m)); err != nil {
			rep.Failed++
			continue
		}
		rep.Members++
		rep.StepsReplayed += len(m.Steps)
	}
	f.ReserveMemberIDs(next)

	fe := &fleetEntry{id: fs.ID, f: f, eng: eng}
	s.touch(fe)
	s.mu.Lock()
	_, exists := s.fleets[fs.ID]
	full := len(s.fleets) >= s.cfg.MaxFleets
	if !exists && !full {
		s.fleets[fs.ID] = fe
	}
	s.mu.Unlock()
	if exists || full {
		f.Close()
		rep.Failed++
		return
	}
	s.hookFleet(fs.ID, eng, f)
	rep.Fleets++
}

// numericID parses the numeric suffix of a server-issued "s-N"/"f-N" id.
func numericID(id, prefix string) (uint64, bool) {
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(id[len(prefix):], 10, 64)
	return n, err == nil
}
