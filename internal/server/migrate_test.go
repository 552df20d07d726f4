package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"oic/internal/journal"
	"oic/pkg/oic"
)

// TestFreezeHandoff pins the node-side half of the drain protocol:
// freeze quiesces stepping (409 frozen) while reads and the trace export
// keep serving; unfreeze resumes exactly where the session stopped.
func TestFreezeHandoff(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Seed: 3, Trace: true}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	for range 5 {
		if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", nil, nil); st != http.StatusOK {
			t.Fatalf("step: status %d", st)
		}
	}

	var frozen oic.SessionInfo
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/freeze", nil, &frozen); st != http.StatusOK {
		t.Fatalf("freeze: status %d", st)
	}
	if !frozen.Frozen || frozen.T != 5 || frozen.ID != info.ID {
		t.Fatalf("frozen snapshot: %+v", frozen)
	}
	var er oic.ErrorResponse
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", nil, &er); st != http.StatusConflict || er.Code != "frozen" {
		t.Fatalf("step while frozen: status %d code %q, want 409 frozen", st, er.Code)
	}
	// Reads keep serving while frozen — the migration copies through them.
	var got oic.SessionInfo
	if st := c.do("GET", "/v1/sessions/"+info.ID, nil, &got); st != http.StatusOK || !got.Frozen {
		t.Fatalf("get while frozen: status %d, %+v", st, got)
	}
	var tr oic.TraceResponse
	if st := c.do("GET", "/v1/sessions/"+info.ID+"/trace", nil, &tr); st != http.StatusOK || tr.Trace.Len() != 5 {
		t.Fatalf("trace while frozen: status %d", st)
	}
	// Freeze is idempotent (a retried drain must not error)...
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/freeze", nil, nil); st != http.StatusOK {
		t.Fatalf("re-freeze: status %d", st)
	}
	// ...and unfreeze is the abort path: stepping resumes. (Fresh struct:
	// "frozen" is omitempty, so decoding over the old one would keep it.)
	var thawed oic.SessionInfo
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/unfreeze", nil, &thawed); st != http.StatusOK || thawed.Frozen {
		t.Fatalf("unfreeze: status %d, %+v", st, thawed)
	}
	var res oic.StepResult
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", nil, &res); st != http.StatusOK || res.T != 5 {
		t.Fatalf("step after unfreeze: status %d, %+v", st, res)
	}
}

// TestSessionResumeEndpoint: a clean import lands bit-exactly under a
// fresh ID; a tampered episode is rejected with 409 resume_mismatch and
// registers nothing.
func TestSessionResumeEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Seed: 11, Trace: true}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	for range 12 {
		if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", nil, nil); st != http.StatusOK {
			t.Fatalf("step: status %d", st)
		}
	}
	var src oic.SessionInfo
	if st := c.do("GET", "/v1/sessions/"+info.ID, nil, &src); st != http.StatusOK {
		t.Fatalf("get: status %d", st)
	}
	var tr oic.TraceResponse
	if st := c.do("GET", "/v1/sessions/"+info.ID+"/trace", nil, &tr); st != http.StatusOK {
		t.Fatalf("trace: status %d", st)
	}

	var landed oic.SessionInfo
	if st := c.do("POST", "/v1/sessions/resume", oic.ResumeSessionRequest{Trace: tr.Trace}, &landed); st != http.StatusCreated {
		t.Fatalf("resume: status %d", st)
	}
	if landed.ID == info.ID || landed.T != src.T {
		t.Fatalf("landed: %+v, source %+v", landed, src)
	}
	for i := range src.X {
		if math.Float64bits(landed.X[i]) != math.Float64bits(src.X[i]) {
			t.Fatalf("landed X[%d] = %x, source %x", i, landed.X[i], src.X[i])
		}
	}
	if math.Float64bits(landed.Energy) != math.Float64bits(src.Energy) {
		t.Fatalf("landed energy %x, source %x", landed.Energy, src.Energy)
	}

	// Tamper with one recorded input: the replay diverges, the import is
	// refused with the typed code, and no session is registered.
	tampered := *tr.Trace
	tampered.Steps = append([]oic.TraceStep(nil), tr.Trace.Steps...)
	s6 := tampered.Steps[6]
	s6.X = append([]float64(nil), s6.X...)
	s6.X[0] += 1e-9
	tampered.Steps[6] = s6
	var er oic.ErrorResponse
	if st := c.do("POST", "/v1/sessions/resume", oic.ResumeSessionRequest{Trace: &tampered}, &er); st != http.StatusConflict || er.Code != "resume_mismatch" {
		t.Fatalf("tampered resume: status %d code %q, want 409 resume_mismatch", st, er.Code)
	}

	// Exactly-one-of is enforced.
	if st := c.do("POST", "/v1/sessions/resume", oic.ResumeSessionRequest{}, &er); st != http.StatusBadRequest {
		t.Fatalf("empty resume: status %d", st)
	}
}

// TestMemberTraceAndResume covers the fleet-side member export, including
// the not-tracing guard.
func TestMemberTraceAndResume(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var fl oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", ComputeBudget: 4, Size: 2, Seed: 7, Trace: true,
	}, &fl); st != http.StatusCreated {
		t.Fatalf("fleet create: status %d", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fl.ID+"/tick", oic.FleetTickRequest{Ticks: 4}, nil); st != http.StatusOK {
		t.Fatalf("tick: status %d", st)
	}
	var tr oic.TraceResponse
	if st := c.do("GET", "/v1/fleets/"+fl.ID+"/sessions/1/trace", nil, &tr); st != http.StatusOK || tr.Trace.Len() != 4 {
		t.Fatalf("member trace: status %d", st)
	}

	// An untraced fleet cannot export members — migration needs the
	// episode, so the error is loud.
	var fl3 oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", ComputeBudget: 4, Size: 1, Seed: 8,
	}, &fl3); st != http.StatusCreated {
		t.Fatalf("fleet3 create: status %d", st)
	}
	var er oic.ErrorResponse
	if st := c.do("GET", "/v1/fleets/"+fl3.ID+"/sessions/0/trace", nil, &er); st != http.StatusConflict {
		t.Fatalf("untraced member trace: status %d, want 409 (%+v)", st, er)
	}
}

// TestSessionResumeKeepsID: a landing that names an ID keeps it, through
// journal recovery too. Of concurrent landings under one ID exactly one
// registers and the rest answer 409 id_taken, as does a landing under an
// ID the server holds; an ID that is not a session ID is a 400. A landing
// under an ID the server has yet to mint holds it: the next create skips
// it instead of overwriting the landed session.
func TestSessionResumeKeepsID(t *testing.T) {
	_, src := newTestServer(t, Config{})
	var info oic.SessionInfo
	if st := src.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Seed: 5, Trace: true}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	for range 6 {
		if st := src.do("POST", "/v1/sessions/"+info.ID+"/step", nil, nil); st != http.StatusOK {
			t.Fatalf("step: status %d", st)
		}
	}
	bin := src.raw("GET", "/v1/sessions/"+info.ID+"/trace?format=binary")
	body, err := json.Marshal(oic.ResumeSessionRequest{ID: info.ID, TraceBin: bin})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dstSrv, dst := journalServer(t, dir, Config{}, journal.SyncEveryTick)
	const racers = 4
	type answer struct {
		status int
		code   string
	}
	answers := make(chan answer, racers)
	for range racers {
		go func() {
			resp, err := dst.hc.Post(dst.base+"/v1/sessions/resume", "application/json", bytes.NewReader(body))
			if err != nil {
				answers <- answer{status: -1}
				return
			}
			defer resp.Body.Close()
			var er oic.ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&er)
			answers <- answer{resp.StatusCode, er.Code}
		}()
	}
	landed := 0
	for range racers {
		switch a := <-answers; {
		case a.status == http.StatusCreated:
			landed++
		case a.status != http.StatusConflict || a.code != "id_taken":
			t.Fatalf("concurrent landing: status %d code %q, want 201 or 409 id_taken", a.status, a.code)
		}
	}
	if landed != 1 {
		t.Fatalf("%d concurrent landings under %s registered, want 1", landed, info.ID)
	}
	var er oic.ErrorResponse
	if st := dst.do("POST", "/v1/sessions/resume", oic.ResumeSessionRequest{ID: info.ID, TraceBin: bin}, &er); st != http.StatusConflict || er.Code != "id_taken" {
		t.Fatalf("landing under a held ID: status %d code %q, want 409 id_taken", st, er.Code)
	}
	for _, id := range []string{"c-1", "S-1", "s-", "s-a/b", "s-" + strings.Repeat("0", 63)} {
		if st := dst.do("POST", "/v1/sessions/resume", oic.ResumeSessionRequest{ID: id, TraceBin: bin}, &er); st != http.StatusBadRequest {
			t.Errorf("landing under %q: status %d, want 400", id, st)
		}
	}

	dstSrv.Close()
	rec, c := journalServer(t, dir, Config{}, journal.SyncEveryTick)
	run, err := rec.BeginJournalRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := run(); err != nil || rep.Sessions != 1 {
		t.Fatalf("recovery: %+v, %v", rep, err)
	}
	var got oic.SessionInfo
	if st := c.do("GET", "/v1/sessions/"+info.ID, nil, &got); st != http.StatusOK || got.ID != info.ID || got.T != 6 {
		t.Fatalf("recovered landing: status %d, %+v", st, got)
	}

	// info.ID is the source's "s-<tag>-1"; land its successor there.
	cut := strings.LastIndex(info.ID, "-") + 1
	n, err := strconv.Atoi(info.ID[cut:])
	if err != nil {
		t.Fatalf("minted ID %q does not end in a counter", info.ID)
	}
	ahead := info.ID[:cut] + strconv.Itoa(n+1)
	if st := src.do("POST", "/v1/sessions/resume", oic.ResumeSessionRequest{ID: ahead, TraceBin: bin}, nil); st != http.StatusCreated {
		t.Fatalf("landing under %s: status %d", ahead, st)
	}
	var fresh oic.SessionInfo
	if st := src.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}, &fresh); st != http.StatusCreated || fresh.ID == ahead || fresh.ID == info.ID {
		t.Fatalf("create after a landing under %s: status %d, id %q", ahead, st, fresh.ID)
	}
	if st := src.do("GET", "/v1/sessions/"+ahead, nil, &got); st != http.StatusOK || got.T != 6 {
		t.Fatalf("landed %s after the create: status %d, %+v", ahead, st, got)
	}
}
