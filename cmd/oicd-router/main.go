// Command oicd-router is the multi-node front end of oicd (DESIGN.md
// §11): it speaks the full /v1/* API of a single node, shards sessions
// and fleets across a cluster of oicd processes by consistent-hashing
// their canonical config fingerprints, and keeps every session movable —
// live migration drains a session through freeze → trace export →
// replay-to-head with bit-exact verification, and node death triggers
// automatic failover from the router's shadow episodes. Every object
// keeps the ID its shard minted; the router forwards paths and bodies
// verbatim and, after a restart, learns each object from the shards the
// first time a request names it.
//
// The membership file is static JSON:
//
//	{"nodes": [{"name": "a", "addr": "http://127.0.0.1:8081"},
//	           {"name": "b", "addr": "http://127.0.0.1:8082"}]}
//
// Cluster operations (also exposed as `oic cluster ...`):
//
//	GET  /v1/cluster          status: health, load, ownership per node
//	POST /v1/cluster/migrate  {"session": "s-6096a2908535316d-1", "target": "b"}
//	POST /v1/cluster/drain    {"node": "a"}
//	GET  /v1/debug/ops        recent migration/failover spans, per phase
//
// Every request is tagged with an X-Oic-Trace-Id (minted here when the
// client sends none) that the router forwards on all proxied node calls,
// so one grep correlates the router's and the shard's structured logs
// (DESIGN.md §12).
//
// Usage:
//
//	oicd-router -cluster nodes.json [-addr :8080] [-probe-interval 1s]
//	            [-death-threshold 3] [-failover] [-node-timeout 30s]
//	            [-shutdown-grace 10s] [-log-level info] [-log-format text]
//
// Placement is fixed: 64 virtual nodes per member on the ring, skipping a
// node whose worst fleet's forced computes reached its budget. A
// session's shadow episode is capped at 100,000 steps, the node-side
// trace cap; past it the session can no longer fail over.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"oic/internal/cluster"
	"oic/internal/obs"

	// Register the case studies: the router canonicalizes configs (scenario
	// resolution needs the plant registry) even though it runs no engines.
	_ "oic/internal/acc"
	_ "oic/internal/orbit"
	_ "oic/internal/thermo"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	clusterFile := flag.String("cluster", "", "membership file (required): JSON list of node names and base URLs")
	probeInterval := flag.Duration("probe-interval", time.Second, "health/load probe period")
	deathThreshold := flag.Int("death-threshold", 3, "consecutive failed liveness probes before a node is declared dead")
	failover := flag.Bool("failover", true, "on node death, re-home its sessions onto survivors from shadow episodes")
	nodeTimeout := flag.Duration("node-timeout", 30*time.Second, "per-request timeout for node round trips")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "graceful-shutdown drain window")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error (debug logs every request)")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oicd-router: %v\n", err)
		os.Exit(2)
	}
	log := logger.With("component", "oicd-router")
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	if *clusterFile == "" {
		fatal("-cluster is required")
	}
	mem, err := cluster.LoadMembership(*clusterFile)
	if err != nil {
		fatal("loading membership", "file", *clusterFile, "error", err)
	}
	rt, err := cluster.New(mem, cluster.Config{
		DeathThreshold: *deathThreshold,
		AutoFailover:   *failover,
		Client:         &http.Client{Timeout: *nodeTimeout},
		Logger:         logger,
	})
	if err != nil {
		fatal("building router", "error", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rt.Start(ctx, *probeInterval)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      120 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("serving", "addr", *addr, "nodes", len(mem.Nodes),
		"probe_interval", *probeInterval, "failover", *failover)

	select {
	case err := <-errc:
		fatal("serve failed", "error", err)
	case <-ctx.Done():
	}

	log.Info("shutting down", "grace", *shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("shutdown", "error", err)
	}
	rt.Stop()
	log.Info("bye")
}
