package server

import (
	"fmt"
	"net/http"
	"regexp"

	"oic/pkg/oic"
)

// Migration endpoints: the node-side half of the cluster drain protocol
// (DESIGN.md §11). A live migration is "record, ship, replay": the router
// freezes the source session, exports its recorded episode
// (GET /v1/sessions/{id}/trace?format=binary), imports it on the target
// via the resume endpoint below — which replays it to head with the same
// bit-exact conformance check journal recovery uses, under the session's
// own ID — and repoints ownership once the successor state verifies.
//
//	POST /v1/sessions/{id}/freeze          quiesce for handoff (steps 409 frozen)
//	POST /v1/sessions/{id}/unfreeze        abort the handoff, resume stepping
//	POST /v1/sessions/resume               import an exported episode as a live session
//	GET  /v1/fleets/{id}/sessions/{mid}/trace  export one member episode

// handleSessionFreeze quiesces a session for migration. The returned
// snapshot is the state the migration target must reproduce bit-for-bit;
// reads (GET, trace export) keep serving while frozen, so the episode
// copy cannot race a step.
func (s *Server) handleSessionFreeze(w http.ResponseWriter, r *http.Request) {
	se, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	s.touch(se)
	info, err := se.s.Freeze()
	if err != nil {
		s.fail(w, err)
		return
	}
	s.m.sessionsFrozen.Add(1)
	info.ID = se.id
	writeJSON(w, http.StatusOK, info)
}

// handleSessionUnfreeze is the abort path of a handoff: the migration
// failed verification (or the operator changed their mind), so the
// source resumes serving.
func (s *Server) handleSessionUnfreeze(w http.ResponseWriter, r *http.Request) {
	se, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	s.touch(se)
	if err := se.s.Unfreeze(); err != nil {
		s.fail(w, err)
		return
	}
	info := se.s.Info()
	info.ID = se.id
	writeJSON(w, http.StatusOK, info)
}

// handleSessionResume imports an exported episode as a live session: the
// landing half of live migration and node failover. The engine comes
// from the trace's fingerprint through the per-configuration cache, the
// episode is replayed to head with bit-exact verification (any
// divergence is 409 resume_mismatch and nothing is registered), and the
// whole imported history is journaled before the response — so a crash
// right after a migration lands recovers the migrated session too. The
// session keeps the request's ID when it names one.
func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		s.fail(w, errRecovering)
		return
	}
	var req oic.ResumeSessionRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if req.ID != "" && !sessionID.MatchString(req.ID) {
		s.fail(w, badRequest(fmt.Sprintf("id %q is not a session ID", req.ID)))
		return
	}
	tr, err := resolveTrace(req.Trace, req.TraceBin, s.cfg.TraceLimit)
	if err != nil {
		s.fail(w, err)
		return
	}
	eng, err := s.engine(oic.ConfigFromTrace(tr))
	if err != nil {
		s.fail(w, err)
		return
	}
	sess, err := eng.ResumeSession(tr, oic.ResumeOptions{Trace: true, TraceLimit: s.cfg.TraceLimit})
	if err != nil {
		s.m.resumeMismatches.Add(1)
		s.fail(w, err)
		return
	}
	id, err := s.publishSession(req.ID, eng, sess, tr.X0, tr.Steps)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.m.sessionsResumed.Add(1)

	info := sess.Info()
	info.ID = id
	writeJSON(w, http.StatusCreated, info)
}

// sessionID matches the IDs servers mint ("s-<tag>-<n>", and the "s-<n>"
// of older journals), so an adopted ID is safe in a URL path and within
// a journal record's bounds.
var sessionID = regexp.MustCompile(`^s-[0-9a-z-]{1,62}$`)

// handleFleetMemberTrace exports one member's recorded episode, the
// fleet-side analogue of GET /v1/sessions/{id}/trace. 409 not_tracing
// unless the fleet was created with "trace": true.
func (s *Server) handleFleetMemberTrace(w http.ResponseWriter, r *http.Request) {
	fe, ok := s.lookupFleet(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	mid, err := s.fleetMemberID(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.touch(fe)
	tr, err := fe.f.MemberTrace(mid)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeTrace(w, r, fmt.Sprintf("%s/%d", fe.id, mid), tr)
}
