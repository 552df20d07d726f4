package server

import (
	"fmt"
	"net/http"

	"oic/pkg/oic"
)

// Trace and replay endpoints: the server face of the trace record/replay
// subsystem (DESIGN.md §8).
//
//	GET  /v1/sessions/{id}/trace  recorded episode of a ?trace=true session
//	                              (JSON; ?format=binary streams the
//	                              canonical binary encoding)
//	POST /v1/replay               re-run a recorded episode under the same
//	                              or a substituted policy/budget and diff
//
// A replay resolves its engine from the trace's fingerprint through the
// same per-configuration cache sessions use, so replaying against a
// config the server already serves costs no rebuild.

// Bounds on client-controlled trace cost.
const (
	// maxTraceSteps caps a traced session's episode length; past it,
	// steps fail with 409 trace_limit instead of growing server memory
	// without bound. At the largest plant dimensions this bounds one
	// recording to a few tens of MB.
	maxTraceSteps = 100_000
	// maxReplaySteps caps the length of an episode a replay request may
	// submit (a replay is a full closed-loop re-run, one κ solve per
	// recorded compute).
	maxReplaySteps = 100_000
)

// resolveTrace extracts, decodes, and validates the episode of a replay
// or resume request — exactly one of an embedded JSON trace or its binary
// encoding — caps its length at limit steps, and holds its fingerprint to
// the cost caps of session creation, since the request may build the
// trace's engine. It touches no engine, so the fuzzer can drive it.
func resolveTrace(tr *oic.Trace, bin []byte, limit int) (*oic.Trace, error) {
	if (tr == nil) == (len(bin) == 0) {
		return nil, badRequest(`set exactly one of "trace" or "trace_bin"`)
	}
	if tr == nil {
		var err error
		if tr, err = oic.DecodeTrace(bin); err != nil {
			return nil, badRequest("invalid binary trace: " + err.Error())
		}
	} else if err := tr.Validate(); err != nil {
		return nil, badRequest(err.Error())
	}
	if tr.Len() > limit {
		return nil, badRequest(fmt.Sprintf("trace has %d steps, limit %d", tr.Len(), limit))
	}
	if err := validateCreate(oic.ConfigFromTrace(tr)); err != nil {
		return nil, err
	}
	return tr, nil
}

func (s *Server) handleSessionTrace(w http.ResponseWriter, r *http.Request) {
	se, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.fail(w, errNotFound)
		return
	}
	s.touch(se)
	tr, err := se.s.Trace()
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeTrace(w, r, se.id, tr)
}

// writeTrace serves a recorded episode in the format the request names:
// JSON by default, the canonical binary encoding for ?format=binary.
func (s *Server) writeTrace(w http.ResponseWriter, r *http.Request, id string, tr *oic.Trace) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.m.tracesServed.Add(1)
		writeJSON(w, http.StatusOK, oic.TraceResponse{ID: id, Trace: tr})
	case "binary":
		b, err := oic.EncodeTrace(tr)
		if err != nil {
			s.fail(w, err)
			return
		}
		s.m.tracesServed.Add(1)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(b)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
	default:
		s.fail(w, badRequest(fmt.Sprintf("unknown trace format %q (json|binary)", format)))
	}
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	var req oic.ReplayRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if req.ComputeBudget < 0 {
		s.fail(w, badRequest("compute_budget must be ≥ 0"))
		return
	}
	tr, err := resolveTrace(req.Trace, req.TraceBin, maxReplaySteps)
	if err != nil {
		s.fail(w, err)
		return
	}
	eng, err := s.engine(oic.ConfigFromTrace(tr))
	if err != nil {
		s.m.replayErrors.Add(1)
		s.fail(w, err)
		return
	}
	rep, err := eng.Replay(tr, oic.ReplayOptions{
		Policy:        req.Policy,
		ComputeBudget: req.ComputeBudget,
		Audit:         req.Audit,
		IncludeTrace:  req.IncludeTrace,
	})
	if err != nil {
		s.m.replayErrors.Add(1)
		s.fail(w, err)
		return
	}
	s.m.replays.Add(1)
	s.m.replaySteps.Add(int64(rep.Diff.Steps))
	s.m.replayHist.Observe(rep.Elapsed.Seconds())
	writeJSON(w, http.StatusOK, rep)
}
