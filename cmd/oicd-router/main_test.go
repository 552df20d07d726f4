package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oic/internal/cluster"
	"oic/pkg/oic"
)

// TestClusterMigrateFailoverSmoke is the multi-node acceptance test:
// real oicd binaries on two shards behind a real oicd-router subprocess.
//
// Part 1 — live migration: a session created through the router is
// stepped 100 times, migrated to the other node mid-run via
// POST /v1/cluster/migrate, stepped 100 more, and its binary trace must
// be byte-identical to 200 uninterrupted steps of the same episode on
// the in-process library path.
//
// Part 2 — failover at fleet scale: 200 sessions over distinct engine
// configurations (so placement spreads them across both shards) are
// stepped halfway, then one node is SIGKILLed mid-stepping (no graceful
// path). The router's probes declare the node dead, re-home every one of
// its sessions from the shadow episodes onto the survivor, and retried
// steps complete all 200 episodes with zero safety violations — each
// trace byte-identical to the same episode run uninterrupted on the
// library path.
//
// Part 3 — router restart: the router is SIGKILLed and a new one started
// on the same address. It holds no ownership table, yet every one of the
// 200 sessions answers through it with its byte-identical trace, and a
// new create gets an ID none of them had.
func TestClusterMigrateFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster test; skipped in -short")
	}
	openBuildInputs(t, "../oicd", ".")
	tmp := t.TempDir()
	binNode := filepath.Join(tmp, "oicd")
	binRouter := filepath.Join(tmp, "oicd-router")
	for bin, dir := range map[string]string{binNode: "../oicd", binRouter: "."} {
		build := exec.Command("go", "build", "-o", bin, dir)
		build.Env = os.Environ()
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", dir, err, out)
		}
	}

	// Two shards plus the router, all real subprocesses on loopback.
	nodeAddrs := map[string]string{"a": freeAddr(t), "b": freeAddr(t)}
	procs := make(map[string]*exec.Cmd, len(nodeAddrs))
	mem := cluster.Membership{}
	for _, name := range []string{"a", "b"} {
		addr := nodeAddrs[name]
		mem.Nodes = append(mem.Nodes, cluster.Node{Name: name, Addr: "http://" + addr})
		cmd := exec.Command(binNode, "-addr", addr,
			"-journal-dir", filepath.Join(tmp, "journal-"+name), "-journal-sync", "step")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[name] = cmd
		t.Cleanup(func() {
			if cmd.ProcessState == nil {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		})
	}
	memFile := filepath.Join(tmp, "nodes.json")
	memJSON, err := json.Marshal(mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(memFile, memJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, addr := range nodeAddrs {
		waitReady(t, "http://"+addr, 30*time.Second)
	}

	routerAddr := freeAddr(t)
	startRouter := func() *exec.Cmd {
		router := exec.Command(binRouter, "-addr", routerAddr, "-cluster", memFile,
			"-probe-interval", "50ms", "-death-threshold", "2")
		router.Stderr = os.Stderr
		if err := router.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if router.ProcessState == nil {
				_ = router.Process.Kill()
				_ = router.Wait()
			}
		})
		return router
	}
	router := startRouter()
	base := "http://" + routerAddr
	waitReady(t, base, 30*time.Second)

	// The deterministic episode both halves replay: library DrawCase so
	// the reference below consumes the exact same disturbances.
	eng, err := oic.NewEngine(oic.Config{Plant: "acc"})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 200
	x0, ws, err := eng.DrawCase(9, steps)
	if err != nil {
		t.Fatal(err)
	}
	reference := libraryTrace(t, eng, x0, ws)

	// --- Part 1: live migration mid-run. ---
	var info oic.SessionInfo
	doJSON(t, base, "POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0}, &info)
	for i := 0; i < steps/2; i++ {
		doJSON(t, base, "POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: ws[i]}, nil)
	}
	var report cluster.MigrateReport
	doJSON(t, base, "POST", "/v1/cluster/migrate", cluster.MigrateRequest{Session: info.ID}, &report)
	if report.From == report.To || report.Steps != steps/2 {
		t.Fatalf("migrate report %+v: want a cross-node move of %d steps", report, steps/2)
	}
	for i := steps / 2; i < steps; i++ {
		doJSON(t, base, "POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: ws[i]}, nil)
	}
	var post oic.SessionInfo
	doJSON(t, base, "GET", "/v1/sessions/"+info.ID, nil, &post)
	if post.T != steps || post.Violations != 0 {
		t.Fatalf("migrated session: %+v, want t=%d and 0 violations", post, steps)
	}
	if got := doRaw(t, base, "/v1/sessions/"+info.ID+"/trace?format=binary"); !bytes.Equal(got, reference) {
		t.Fatalf("migrated trace differs from uninterrupted reference (%d vs %d bytes)",
			len(got), len(reference))
	}
	// Clear the table so part 2's ownership counts are exactly its own.
	doJSON(t, base, "DELETE", "/v1/sessions/"+info.ID, nil, nil)

	// --- Part 2: 200 sessions, SIGKILL one shard mid-stepping; failover
	// must finish every episode bit-exactly on the survivor. ---
	//
	// Placement keys on the canonical config fingerprint, so distinct
	// plant×policy bindings spread the population across both nodes
	// while every node stays far under its engine-cache cap.
	const (
		fleetSessions = 200
		fleetSteps    = 24
	)
	cfgs := []oic.Config{
		{Plant: "acc", Policy: oic.PolicyBangBang},
		{Plant: "acc", Policy: oic.PolicyAlwaysRun},
		{Plant: "thermo", Policy: oic.PolicyBangBang},
		{Plant: "thermo", Policy: oic.PolicyAlwaysRun},
		{Plant: "orbit", Policy: oic.PolicyBangBang},
		{Plant: "orbit", Policy: oic.PolicyAlwaysRun},
	}
	type episode struct {
		id   string
		cfg  int
		x0   []float64
		ws   [][]float64
		want []byte // the uninterrupted library trace
	}
	engines := make([]*oic.Engine, len(cfgs))
	for s, cfg := range cfgs {
		e, err := oic.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[s] = e
	}
	eps := make([]*episode, fleetSessions)
	for i := range eps {
		c := i % len(cfgs)
		x0i, wsi, err := engines[c].DrawCase(int64(1000+i), fleetSteps)
		if err != nil {
			t.Fatal(err)
		}
		var si oic.SessionInfo
		doJSON(t, base, "POST", "/v1/sessions",
			oic.CreateSessionRequest{Plant: cfgs[c].Plant, Policy: cfgs[c].Policy, X0: x0i}, &si)
		eps[i] = &episode{id: si.ID, cfg: c, x0: x0i, ws: wsi}
	}
	for i := 0; i < fleetSteps/2; i++ {
		for _, ep := range eps {
			doJSON(t, base, "POST", "/v1/sessions/"+ep.id+"/step", oic.StepRequest{W: ep.ws[i]}, nil)
		}
	}

	// Both shards must actually hold a share, or the kill proves nothing.
	var cs cluster.ClusterStatus
	doJSON(t, base, "GET", "/v1/cluster", nil, &cs)
	victim, victimOwned := "", 0
	for _, n := range cs.Nodes {
		if n.OwnedSessions == 0 {
			t.Fatalf("node %q owns nothing — placement did not spread: %+v", n.Name, cs)
		}
		if n.OwnedSessions > victimOwned {
			victim, victimOwned = n.Name, n.OwnedSessions
		}
	}

	// SIGKILL the bigger owner mid-stepping: the kill fires from a
	// goroutine while the second half of the stepping is in flight, so
	// some sessions die with unacknowledged steps. The shadow episodes
	// record acknowledged steps only, so failover replays a killed
	// session to its last ack and the client retry is exactly-once.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(150 * time.Millisecond)
		_ = procs[victim].Process.Kill() // SIGKILL: no drain, no flush
		_ = procs[victim].Wait()
	}()
	deadline := time.Now().Add(120 * time.Second)
	for i := fleetSteps / 2; i < fleetSteps; i++ {
		for _, ep := range eps {
			for {
				st, body := tryJSON(t, base, "POST", "/v1/sessions/"+ep.id+"/step", oic.StepRequest{W: ep.ws[i]})
				if st == http.StatusOK {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("session %s step %d still failing after kill: status %d, body %s",
						ep.id, i, st, body)
				}
				time.Sleep(25 * time.Millisecond)
			}
		}
	}
	<-killed

	// Every episode finished on the survivor: zero violations, and the
	// binary trace byte-identical to an uninterrupted library run.
	for _, ep := range eps {
		var si oic.SessionInfo
		doJSON(t, base, "GET", "/v1/sessions/"+ep.id, nil, &si)
		if si.T != fleetSteps || si.Violations != 0 {
			t.Fatalf("session %s after failover: %+v, want t=%d and 0 violations", ep.id, si, fleetSteps)
		}
		got := doRaw(t, base, "/v1/sessions/"+ep.id+"/trace?format=binary")
		ep.want = libraryTrace(t, engines[ep.cfg], ep.x0, ep.ws)
		if !bytes.Equal(got, ep.want) {
			t.Fatalf("session %s trace differs from uninterrupted reference (%d vs %d bytes)",
				ep.id, len(got), len(ep.want))
		}
	}

	// The cluster status attests the death and the re-homing.
	doJSON(t, base, "GET", "/v1/cluster", nil, &cs)
	for _, n := range cs.Nodes {
		switch n.Name {
		case victim:
			if n.Live || !n.Dead || n.OwnedSessions != 0 {
				t.Fatalf("killed node %q still looks alive: %+v", victim, n)
			}
		default:
			if !n.Ready || n.OwnedSessions != fleetSessions {
				t.Fatalf("survivor %q does not own all %d sessions: %+v", n.Name, fleetSessions, n)
			}
		}
	}
	if cs.Lost != 0 {
		t.Fatalf("failover lost %d session(s)", cs.Lost)
	}

	// --- Part 3: SIGKILL the router and start a new one on the same
	// address. It learns every session from the survivor on first touch.
	_ = router.Process.Kill()
	_ = router.Wait()
	startRouter()
	waitReady(t, base, 30*time.Second)
	issued := map[string]bool{info.ID: true}
	for _, ep := range eps {
		issued[ep.id] = true
		var si oic.SessionInfo
		doJSON(t, base, "GET", "/v1/sessions/"+ep.id, nil, &si)
		if si.ID != ep.id || si.T != fleetSteps {
			t.Fatalf("session %s through the restarted router: %+v", ep.id, si)
		}
		if got := doRaw(t, base, "/v1/sessions/"+ep.id+"/trace?format=binary"); !bytes.Equal(got, ep.want) {
			t.Fatalf("session %s trace through the restarted router differs from the reference", ep.id)
		}
	}
	var fresh oic.SessionInfo
	doJSON(t, base, "POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}, &fresh)
	if issued[fresh.ID] {
		t.Fatalf("the restarted router handed out %s again", fresh.ID)
	}
}

// openBuildInputs opens every module package directory the named
// packages compile from. go test keys a cached pass on the files and
// directories a test opens (a directory by each entry's name, size and
// modification time), and the builds this test runs happen in
// subprocesses it cannot see, from packages its own binary does not
// import; without this, an edit to oicd's sources could leave a stale
// cached pass.
func openBuildInputs(t *testing.T, pkgs ...string) {
	t.Helper()
	list := exec.Command("go", append([]string{"list", "-deps", "-f",
		"{{if and .Module .Module.Main}}{{.Dir}}{{end}}"}, pkgs...)...)
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, dir := range strings.Fields(string(out)) {
		f, err := os.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// libraryTrace runs one episode uninterrupted on the in-process library
// path and exports its binary trace — the byte-identity oracle.
func libraryTrace(t *testing.T, eng *oic.Engine, x0 []float64, ws [][]float64) []byte {
	t.Helper()
	s, err := eng.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartTrace(100_000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepMany(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := oic.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// freeAddr reserves then releases a loopback port for a subprocess.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitReady polls /readyz until it answers 200.
func waitReady(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s not ready within %v", base, timeout)
}

func doJSON(t *testing.T, base, method, path string, body, out any) {
	t.Helper()
	st, raw := tryJSON(t, base, method, path, body)
	if st >= 300 {
		t.Fatalf("%s %s: status %d, body %s", method, path, st, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
}

// tryJSON performs one request and reports (status, body) without
// failing the test — the failover retry loop needs the error statuses.
func tryJSON(t *testing.T, base, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, []byte(fmt.Sprintf("transport: %v", err))
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func doRaw(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", path, resp.StatusCode, b)
	}
	return b
}
