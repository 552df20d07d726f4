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
	"strconv"
	"syscall"
	"time"
)

// daemon is one child process: oicd or oicd-router.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  string        // path of its combined stdout/stderr
	done chan struct{} // closed once the process has been reaped
}

// startDaemon launches bin with args, logging to logPath. The child dies
// with the benchmark (Pdeathsig), so no daemon outlives a crashed run.
func startDaemon(name, bin, url, logPath string, args ...string) (*daemon, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, url: url, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant once stop was asked for
		lf.Close()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to shut down gracefully and kills it if it has not
// exited within the grace period. It returns once the process is reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// waitReady polls GET url+"/readyz" until it answers 200, the daemon
// exits, or ctx expires.
func (d *daemon) waitReady(ctx context.Context, c *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was ready (log %s)", d.name, d.log)
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", d.name, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// deployment is the system under test: one oicd shard serving a preloaded
// artifact with a write-ahead journal, behind a one-node oicd-router.
type deployment struct {
	shard, router *daemon
	journal       string
}

// pids lists the processes whose CPU time and memory the benchmark bills.
func (d *deployment) pids() []int { return []int{d.shard.pid(), d.router.pid()} }

// stop shuts both daemons down, router first, and deletes the journal.
func (d *deployment) stop() {
	if d.router != nil {
		d.router.stop()
	}
	if d.shard != nil {
		d.shard.stop()
	}
	_ = os.RemoveAll(d.journal)
}

// boot starts a fresh shard, waits for its preload to finish, then starts
// the router and waits for its first probe to mark the shard ready. The
// router starts second on purpose: started alongside a still-preloading
// shard, its first probe fails and readiness waits a whole probe interval.
func boot(ctx context.Context, bin, dir string, k int) (*deployment, error) {
	shardAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	routerAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	members := filepath.Join(dir, "cluster-"+strconv.Itoa(k)+".json")
	m, _ := json.Marshal(map[string]any{"nodes": []map[string]string{{"name": "a", "addr": "http://" + shardAddr}}})
	if err := os.WriteFile(members, m, 0o644); err != nil {
		return nil, err
	}
	d := &deployment{journal: filepath.Join(dir, "journal-"+strconv.Itoa(k))}
	poll := &http.Client{Timeout: time.Second}
	defer poll.CloseIdleConnections()

	d.shard, err = startDaemon("oicd", filepath.Join(bin, "oicd"), "http://"+shardAddr,
		filepath.Join(dir, "oicd-"+strconv.Itoa(k)+".log"),
		"-addr", shardAddr, "-artifact-dir", filepath.Join(dir, "artifacts"), "-preload",
		"-journal-dir", d.journal, "-journal-sync", "tick")
	if err == nil {
		err = d.shard.waitReady(ctx, poll)
	}
	if err == nil {
		d.router, err = startDaemon("oicd-router", filepath.Join(bin, "oicd-router"), "http://"+routerAddr,
			filepath.Join(dir, "router-"+strconv.Itoa(k)+".log"),
			"-cluster", members, "-addr", routerAddr)
	}
	if err == nil {
		err = d.router.waitReady(ctx, poll)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// api is the load generator's HTTP client: one keep-alive connection.
type api struct{ c *http.Client }

func newAPI() *api {
	return &api{c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// do sends one request and returns the full response body; the returned
// duration spans sending the request to reading the last response byte.
func (a *api) do(ctx context.Context, method, url string, body []byte, want int) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := a.c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != want {
		return nil, lat, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, lat, nil
}

// getJSON GETs url (expecting 200) and decodes the body into v.
func (a *api) getJSON(ctx context.Context, url string, v any) error {
	b, _, err := a.do(ctx, http.MethodGet, url, nil, http.StatusOK)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return json.Unmarshal(b, v)
}

// scrape reads and parses a daemon's /metrics, returning how long the
// round trip took.
func (a *api) scrape(ctx context.Context, d *daemon) (promSamples, time.Duration, error) {
	b, lat, err := a.do(ctx, http.MethodGet, d.url+"/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, 0, fmt.Errorf("scraping %s: %w", d.name, err)
	}
	s, err := parseProm(bytes.NewReader(b))
	return s, lat, err
}
