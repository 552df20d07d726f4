package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"oic/internal/artifact"
	"oic/internal/fault"
	"oic/pkg/oic"
)

// TestReadyzPreloading pins the liveness/readiness split: /readyz
// answers 503 with a "preloading" marker from the moment BeginPreload
// returns until its runner finishes and 200 on both sides of the window
// — load balancers hold traffic while a warm boot materializes the
// catalogue — while /healthz (pure liveness) stays 200 throughout.
func TestReadyzPreloading(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	if err := srv.OpenArtifactStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	var hz map[string]any
	if st := c.do("GET", "/readyz", nil, &hz); st != http.StatusOK || hz["ok"] != true {
		t.Fatalf("readyz before preload: %d %v", st, hz)
	}

	run, err := srv.BeginPreload()
	if err != nil {
		t.Fatal(err)
	}
	// Not ready from the moment BeginPreload returns — no startup window
	// in which an LB could route to a cold cache.
	hz = nil
	if st := c.do("GET", "/readyz", nil, &hz); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz during preload: status %d, want 503", st)
	}
	if hz["ok"] != false || hz["preloading"] != true {
		t.Fatalf("readyz during preload: %v", hz)
	}
	// Liveness is orthogonal: the process is up, so /healthz stays 200
	// even while readiness gates traffic.
	hz = nil
	if st := c.do("GET", "/healthz", nil, &hz); st != http.StatusOK || hz["ok"] != true || hz["preloading"] != true {
		t.Fatalf("healthz during preload: %d %v, want 200 ok with preloading marker", st, hz)
	}

	if n, skipped, err := run(); err != nil || n != 0 || skipped != 0 {
		t.Fatalf("preload of empty store = (%d, %d, %v), want (0, 0, nil)", n, skipped, err)
	}
	hz = nil
	if st := c.do("GET", "/readyz", nil, &hz); st != http.StatusOK || hz["ok"] != true {
		t.Fatalf("readyz after preload: %d %v", st, hz)
	}
}

// TestReadyzPreloadWithoutStore: BeginPreload without a store is a
// configuration error and must not wedge readiness.
func TestReadyzPreloadWithoutStore(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	if _, err := srv.BeginPreload(); err == nil {
		t.Fatal("BeginPreload without a store succeeded")
	}
	if st := c.do("GET", "/readyz", nil, nil); st != http.StatusOK {
		t.Fatalf("readyz after failed BeginPreload: status %d", st)
	}
}

// goldenBytes reads a committed golden artifact.
func goldenBytes(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "artifact", "testdata", "golden", name+artifact.Ext))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// putGolden stores the committed golden artifact name in the artifact
// store at dir, under its fingerprint.
func putGolden(t *testing.T, dir, name string) {
	t.Helper()
	a, err := oic.DecodeArtifact(goldenBytes(t, name))
	if err != nil {
		t.Fatal(err)
	}
	store, err := oic.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(oic.ConfigFromArtifact(a).Fingerprint(), a); err != nil {
		t.Fatal(err)
	}
}

// syncBuffer is a bytes.Buffer a logger may write from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestPreloadSkipsBadArtifacts: preload handles a bad store file the way
// a lookup does. A store holding one golden artifact, one truncated file
// and one that cannot be read preloads the one engine; the truncated file
// is counted corrupt and removed, the unreadable one is left in place,
// both skips are logged with their paths, /readyz reads ready, and the
// load is timed in oicd_engine_load_seconds.
func TestPreloadSkipsBadArtifacts(t *testing.T) {
	dir := t.TempDir()
	putGolden(t, dir, "thermo-drl")
	acc := goldenBytes(t, "acc-always-run")
	truncated := filepath.Join(dir, "0000000000000000"+artifact.Ext)
	if err := os.WriteFile(truncated, acc[:len(acc)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	unreadable := filepath.Join(dir, "ffffffffffffffff"+artifact.Ext)
	if err := os.Symlink(filepath.Join(dir, "missing"), unreadable); err != nil {
		t.Fatal(err)
	}

	var logs syncBuffer
	srv, c := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err := srv.OpenArtifactStore(dir); err != nil {
		t.Fatal(err)
	}
	run, err := srv.BeginPreload()
	if err != nil {
		t.Fatal(err)
	}
	if n, skipped, err := run(); err != nil || n != 1 || skipped != 2 {
		t.Fatalf("preload = (%d, %d, %v), want (1, 2, nil)", n, skipped, err)
	}
	if got := srv.ArtifactStats().Corrupt; got != 1 {
		t.Errorf("corrupt count %d, want 1", got)
	}
	if _, err := os.Stat(truncated); !os.IsNotExist(err) {
		t.Errorf("truncated file still in the store (stat: %v)", err)
	}
	if _, err := os.Lstat(unreadable); err != nil {
		t.Errorf("unreadable file removed: %v", err)
	}
	for _, path := range []string{truncated, unreadable} {
		if !strings.Contains(logs.String(), path) {
			t.Errorf("no skip logged for %s:\n%s", path, logs.String())
		}
	}
	if st := c.do("GET", "/readyz", nil, nil); st != http.StatusOK {
		t.Fatalf("readyz after preload: status %d", st)
	}
	exposition := scrape(t, c)
	if !strings.Contains(exposition, "oicd_artifact_corrupt_total 1\n") {
		t.Errorf("oicd_artifact_corrupt_total is not 1")
	}
	if n := histCount(t, exposition, "oicd_engine_load_seconds"); n != 1 {
		t.Errorf("oicd_engine_load_seconds count = %d, want 1", n)
	}
}

// TestPreloadDropsMisnamedArtifact: a golden artifact copied into the
// store under a name that is not its fingerprint's path is read the way a
// lookup reads it: preload skips it, counts it corrupt and removes it,
// and still loads the correctly named entry beside it.
func TestPreloadDropsMisnamedArtifact(t *testing.T) {
	dir := t.TempDir()
	putGolden(t, dir, "thermo-drl")
	misnamed := filepath.Join(dir, "0123456789abcdef0123456789abcdef"+artifact.Ext)
	if err := os.WriteFile(misnamed, goldenBytes(t, "acc-always-run"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, Config{})
	if err := srv.OpenArtifactStore(dir); err != nil {
		t.Fatal(err)
	}
	run, err := srv.BeginPreload()
	if err != nil {
		t.Fatal(err)
	}
	if n, skipped, err := run(); err != nil || n != 1 || skipped != 1 {
		t.Fatalf("preload = (%d, %d, %v), want (1, 1, nil)", n, skipped, err)
	}
	if got := srv.ArtifactStats().Corrupt; got != 1 {
		t.Errorf("corrupt count %d, want 1", got)
	}
	if _, err := os.Stat(misnamed); !os.IsNotExist(err) {
		t.Errorf("misnamed file still in the store (stat: %v)", err)
	}
}

// TestPreloadRetriesReadFaults: preload reads through the store's
// artifact.read fault site and its retry loop, so two injected read
// failures are absorbed and the artifact still loads.
func TestPreloadRetriesReadFaults(t *testing.T) {
	dir := t.TempDir()
	putGolden(t, dir, "thermo-drl")
	inj, err := fault.Parse(1, "artifact.read=first:2")
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, Config{})
	if err := srv.OpenArtifactStore(dir); err != nil {
		t.Fatal(err)
	}
	srv.SetFaults(inj)
	run, err := srv.BeginPreload()
	if err != nil {
		t.Fatal(err)
	}
	if n, skipped, err := run(); err != nil || n != 1 || skipped != 0 {
		t.Fatalf("preload = (%d, %d, %v), want (1, 0, nil)", n, skipped, err)
	}
	if st := srv.ArtifactStats(); st.Retries != 2 || st.Corrupt != 0 {
		t.Errorf("store stats %+v, want 2 retries and nothing corrupt", st)
	}
}

// corruptEntry truncates a store file to half its length, simulating a
// torn write from a crashed process or a damaged disk.
func corruptEntry(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

func createSession(t *testing.T, c *client, req oic.CreateSessionRequest) oic.SessionInfo {
	t.Helper()
	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", req, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d (%+v)", st, info)
	}
	return info
}

// TestServerArtifactStore drives the full cache hierarchy: the first
// server builds an engine and writes the artifact back; a second server
// sharing the directory serves the same configuration from the store
// without compiling anything; a third preloads the catalogue at boot and
// serves the first session without even a store lookup.
func TestServerArtifactStore(t *testing.T) {
	dir := t.TempDir()
	req := oic.CreateSessionRequest{Plant: "thermo", Policy: oic.PolicyBangBang, Seed: 5}

	// Cold server: miss, build, write-back.
	srvA, cA := newTestServer(t, Config{})
	if err := srvA.OpenArtifactStore(dir); err != nil {
		t.Fatal(err)
	}
	createSession(t, cA, req)
	if got := srvA.m.enginesBuilt.Load(); got != 1 {
		t.Fatalf("server A built %d engines, want 1", got)
	}
	stats := srvA.ArtifactStats()
	if stats.Misses != 1 || stats.Writes != 1 || stats.Hits != 0 {
		t.Fatalf("server A store stats %+v, want one miss and one write", stats)
	}

	// Warm server: hit, no build.
	srvB, cB := newTestServer(t, Config{})
	if err := srvB.OpenArtifactStore(dir); err != nil {
		t.Fatal(err)
	}
	createSession(t, cB, req)
	if got := srvB.m.enginesBuilt.Load(); got != 0 {
		t.Errorf("server B built %d engines, want 0 (artifact hit)", got)
	}
	if got := srvB.m.enginesLoaded.Load(); got != 1 {
		t.Errorf("server B loaded %d engines, want 1", got)
	}
	if stats := srvB.ArtifactStats(); stats.Hits != 1 {
		t.Errorf("server B store stats %+v, want one hit", stats)
	}

	// Preloaded server: the engine is live before the first request.
	srvC, cC := newTestServer(t, Config{})
	if err := srvC.OpenArtifactStore(dir); err != nil {
		t.Fatal(err)
	}
	run, err := srvC.BeginPreload()
	if err != nil {
		t.Fatal(err)
	}
	if n, skipped, err := run(); err != nil || n != 1 || skipped != 0 {
		t.Fatalf("preload = (%d, %d, %v), want (1, 0, nil)", n, skipped, err)
	}
	createSession(t, cC, req)
	if got := srvC.m.enginesBuilt.Load(); got != 0 {
		t.Errorf("server C built %d engines after preload, want 0", got)
	}
	if got := srvC.m.artifactPreloaded.Load(); got != 1 {
		t.Errorf("server C preloaded %d engines, want 1", got)
	}
	if stats := srvC.ArtifactStats(); stats.Hits != 0 || stats.Misses != 0 {
		t.Errorf("server C store stats %+v, want no lookups (cache pre-fired)", stats)
	}

	// The artifact counters are on the scrape surface.
	reqM, _ := http.NewRequest("GET", cC.base+"/metrics", nil)
	resp, err := cC.hc.Do(reqM)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"oicd_engines_loaded_total",
		"oicd_artifact_hits_total",
		"oicd_artifact_misses_total",
		"oicd_artifact_corrupt_total",
		"oicd_artifact_writes_total",
		"oicd_artifact_preloaded_total 1",
	} {
		if !strings.Contains(string(raw), metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
}

// TestServerCorruptArtifactFallsBack: a damaged store entry degrades to
// an in-process build — never a failed request — and is dropped and
// counted so the rebuilt engine's write-back heals the store.
func TestServerCorruptArtifactFallsBack(t *testing.T) {
	dir := t.TempDir()
	req := oic.CreateSessionRequest{Plant: "thermo", Policy: oic.PolicyBangBang, Seed: 5}

	srvA, cA := newTestServer(t, Config{})
	if err := srvA.OpenArtifactStore(dir); err != nil {
		t.Fatal(err)
	}
	createSession(t, cA, req)

	// Truncate the single stored entry.
	files, err := srvA.store.Files()
	if err != nil || len(files) != 1 {
		t.Fatalf("store files = (%v, %v)", files, err)
	}
	corruptEntry(t, files[0])

	srvB, cB := newTestServer(t, Config{})
	if err := srvB.OpenArtifactStore(dir); err != nil {
		t.Fatal(err)
	}
	createSession(t, cB, req)
	if got := srvB.m.enginesBuilt.Load(); got != 1 {
		t.Errorf("corrupt entry: server built %d engines, want 1 (fallback)", got)
	}
	stats := srvB.ArtifactStats()
	if stats.Corrupt != 1 {
		t.Errorf("store stats %+v, want one corrupt entry", stats)
	}
	// The write-back after the rebuild healed the store.
	if stats.Writes != 1 {
		t.Errorf("store stats %+v, want one healing write", stats)
	}
}
