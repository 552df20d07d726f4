package server

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"oic/internal/obs"
	"oic/pkg/oic"
)

// scrape fetches /metrics from a live test server.
func scrape(t *testing.T, c *client) string {
	t.Helper()
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// histCount extracts the _count value of a histogram series whose line
// starts with prefix (name plus any label opener).
func histCount(t *testing.T, exposition, prefix string) uint64 {
	t.Helper()
	var total uint64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) || !strings.Contains(line, "_count") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestMetricsScrapeValid exercises the serving paths that feed the
// histograms, then validates the full /metrics exposition with the strict
// parser: declared types, cumulative buckets ending at +Inf, and
// _count == +Inf for every histogram series.
func TestMetricsScrapeValid(t *testing.T) {
	srv, c := newTestServer(t, Config{})

	// A preloaded golden artifact feeds oicd_engine_load_seconds.
	dir := t.TempDir()
	putGolden(t, dir, "thermo-drl")
	if err := srv.OpenArtifactStore(dir); err != nil {
		t.Fatal(err)
	}
	run, err := srv.BeginPreload()
	if err != nil {
		t.Fatal(err)
	}
	if n, skipped, err := run(); err != nil || n != 1 || skipped != 0 {
		t.Fatalf("preload = (%d, %d, %v), want (1, 0, nil)", n, skipped, err)
	}

	// Sessions: create + step feed oicd_step_seconds.
	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions",
		oic.CreateSessionRequest{Plant: "thermo", Policy: oic.PolicyBangBang, Seed: 3}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", nil, nil); st != http.StatusOK {
		t.Fatalf("step: status %d", st)
	}

	// Fleets with a tick deadline feed oicd_fleet_tick_seconds AND
	// oicd_fleet_deadline_margin_seconds.
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", ComputeBudget: 2, Size: 4, Seed: 1,
		TickDeadline: time.Second,
	}, &fi); st != http.StatusCreated {
		t.Fatalf("fleet create: status %d", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{Ticks: 3}, nil); st != http.StatusOK {
		t.Fatalf("tick: status %d", st)
	}

	exposition := scrape(t, c)
	if err := obs.ValidateMetrics([]byte(exposition)); err != nil {
		t.Fatalf("invalid exposition: %v\n---\n%s", err, exposition)
	}

	// The paper-facing acceptance criterion: the deadline-margin histogram
	// is exported and populated after deadline-bearing ticks.
	if n := histCount(t, exposition, "oicd_fleet_deadline_margin_seconds"); n < 3 {
		t.Errorf("oicd_fleet_deadline_margin_seconds count = %d, want ≥ 3", n)
	}
	// The tick's two fanned-out phases are exported under the names the
	// benchmark ledger uses.
	for _, phase := range []string{"decide", "step"} {
		series := `oicd_fleet_tick_phase_seconds_count{phase="` + phase + `"}`
		if n := histCount(t, exposition, series); n < 3 {
			t.Errorf("%s = %d, want ≥ 3", series, n)
		}
	}
	if n := histCount(t, exposition, "oicd_step_seconds"); n < 1 {
		t.Errorf("oicd_step_seconds count = %d, want ≥ 1", n)
	}
	if n := histCount(t, exposition, "oicd_engine_load_seconds"); n != 1 {
		t.Errorf("oicd_engine_load_seconds count = %d, want 1", n)
	}
	for _, name := range []string{"go_goroutines", "go_heap_inuse_bytes", "go_gc_pause_seconds_total"} {
		if !strings.Contains(exposition, name+" ") {
			t.Errorf("exposition missing runtime metric %s", name)
		}
	}
}

// TestTraceIDPropagation: the server mints an X-Oic-Trace-Id when the
// client sends none, adopts the client's when present, and echoes the ID
// in error bodies so failures are correlatable.
func TestTraceIDPropagation(t *testing.T) {
	_, c := newTestServer(t, Config{})

	// Minted when absent.
	resp, err := c.hc.Get(c.base + "/v1/plants")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get(obs.TraceHeader)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
		t.Fatalf("minted trace ID %q, want 16 hex chars", minted)
	}

	// Adopted when present, and echoed into the error payload.
	const want = "feedc0dedeadbeef"
	req, _ := http.NewRequest("GET", c.base+"/v1/sessions/nope", nil)
	req.Header.Set(obs.TraceHeader, want)
	resp, err = c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != want {
		t.Fatalf("echoed trace ID %q, want %q", got, want)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"trace_id":"`+want+`"`)) {
		t.Fatalf("error body missing trace_id: %s", body)
	}
}
