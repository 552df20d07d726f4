// Command oicd is the opportunistic intermittent-control session server: a
// long-running HTTP/JSON service over the pkg/oic facade. Clients open
// control sessions against any registered plant and stream measured states
// in; the server answers with Algorithm 1's per-step decision (run κ or
// skip) and the resulting input, sharing each configuration's compiled
// artifacts (safety sets, parametric LP, trained policy) across every
// session. Fleets (/v1/fleets) multiplex thousands of sessions over a
// per-tick compute budget through the opportunistic scheduler. See
// README.md for a curl transcript and DESIGN.md §6–§7 for the
// architecture.
//
// Crash safety: with -journal-dir every acknowledged step is write-ahead
// journaled, and a restart replays the journal to head — /readyz holds
// 503 {"recovering":true} until every pre-crash session is byte-for-byte
// back (DESIGN.md §10).
//
// Observability (DESIGN.md §12): /metrics serves latency and
// deadline-margin histograms, every request carries an X-Oic-Trace-Id
// (minted here when absent), and -log-level/-log-format select
// structured text or JSON logs on stderr.
//
// Usage:
//
//	oicd [-addr :8080] [-ttl 15m] [-max-sessions 4096] [-max-fleets 16]
//	     [-journal-dir /var/lib/oicd/journal] [-journal-sync step]
//	     [-request-timeout 30s] [-pprof 127.0.0.1:6060]
//	     [-log-level info] [-log-format text]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"oic/internal/fault"
	"oic/internal/journal"
	"oic/internal/obs"
	"oic/internal/server"

	// Register the case studies.
	_ "oic/internal/acc"
	_ "oic/internal/orbit"
	_ "oic/internal/thermo"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	ttl := flag.Duration("ttl", 15*time.Minute, "evict sessions and fleets idle longer than this")
	maxSessions := flag.Int("max-sessions", 4096, "maximum live sessions")
	maxEngines := flag.Int("max-engines", 64, "maximum cached engines (distinct session configurations)")
	maxFleets := flag.Int("max-fleets", 16, "maximum live fleets")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "graceful-shutdown drain window")
	readTimeout := flag.Duration("read-timeout", 60*time.Second, "full-request read timeout")
	writeTimeout := flag.Duration("write-timeout", 120*time.Second, "response write timeout (batched steps and fleet ticks run inside it)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle timeout")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof on this loopback address (e.g. 127.0.0.1:6060); empty disables")
	artifactDir := flag.String("artifact-dir", "", "on-disk engine artifact store: check before building engines, write back after; empty disables")
	preload := flag.Bool("preload", false, "materialize every artifact in -artifact-dir into the engine cache at boot (/readyz reports 503 until done)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request handling deadline; expiry returns 503 {\"code\":\"deadline\"} (0 disables)")
	journalDir := flag.String("journal-dir", "", "write-ahead journal directory: every acknowledged step is journaled, and a restart replays the journal to head before serving; empty disables")
	journalSync := flag.String("journal-sync", "step", "journal fsync policy: step (every append), tick (once per step/tick request), interval, or none")
	faultSpec := flag.String("fault", "", "deterministic fault injection spec, e.g. \"artifact.read=first:2,journal.append=0.01,sched.compute=after:500\"; empty disables")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the -fault decision streams")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error (debug logs every request)")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oicd: %v\n", err)
		os.Exit(2)
	}
	log := logger.With("component", "oicd")
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	srv := server.New(server.Config{
		SessionTTL: *ttl, MaxSessions: *maxSessions,
		MaxEngines: *maxEngines, MaxFleets: *maxFleets,
		RequestTimeout: *requestTimeout,
		Logger:         logger,
	})
	srv.StartJanitor()

	if *faultSpec != "" {
		inj, err := fault.Parse(*faultSeed, *faultSpec)
		if err != nil {
			fatal("invalid -fault spec", "error", err)
		}
		srv.SetFaults(inj)
		log.Info("fault injection armed", "spec", inj.String())
	}
	if *preload && *artifactDir == "" {
		fatal("-preload requires -artifact-dir")
	}
	if *artifactDir != "" {
		if err := srv.OpenArtifactStore(*artifactDir); err != nil {
			fatal("opening -artifact-dir", "dir", *artifactDir, "error", err)
		}
		log.Info("artifact store open", "dir", *artifactDir)
	}
	if *journalDir != "" {
		policy, err := journal.ParsePolicy(*journalSync)
		if err != nil {
			fatal("invalid -journal-sync", "error", err)
		}
		if err := srv.OpenJournal(journal.Options{Dir: *journalDir, Policy: policy}); err != nil {
			fatal("opening -journal-dir", "dir", *journalDir, "error", err)
		}
		log.Info("journal open", "dir", *journalDir, "sync_policy", policy.String())
		run, err := srv.BeginJournalRecovery(*journalDir)
		if err != nil {
			fatal("journal recovery", "error", err)
		}
		// Serve (503 on /readyz and the create endpoints) while replay
		// runs, so a restart holds traffic until the pre-crash state is
		// byte-for-byte back.
		go func() {
			rep, err := run()
			if err != nil {
				log.Error("journal recovery failed", "error", err)
				return
			}
			log.Info("journal recovery done",
				"sessions", rep.Sessions, "fleets", rep.Fleets, "members", rep.Members,
				"steps_replayed", rep.StepsReplayed, "skipped", rep.Skipped, "failed", rep.Failed,
				"segments", rep.Segments, "records", rep.Records,
				"torn_tails", rep.TornTails, "orphans", rep.Orphans)
		}()
	}
	if *preload {
		run, err := srv.BeginPreload()
		if err != nil {
			fatal("-preload", "error", err)
		}
		// Serve (503 on /readyz) while the catalogue materializes, so a
		// rolling restart holds traffic instead of rebuilding engines.
		go func() {
			n, skipped, err := run()
			if err != nil {
				log.Error("preload failed", "error", err)
				return
			}
			log.Info("preload done", "engines", n, "skipped", skipped, "dir", *artifactDir)
		}()
	}

	// Slowloris hardening: bound every phase of a connection's lifetime.
	// The write timeout is generous because batched-step and fleet-tick
	// requests legitimately compute for seconds.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	if *pprofAddr != "" {
		// Contention profiling is off by default in the runtime; with the
		// debug listener requested, sample mutex contention (1/16 events)
		// and every blocking event ≥ 1ms so /debug/pprof/{mutex,block}
		// carry data.
		runtime.SetMutexProfileFraction(16)
		runtime.SetBlockProfileRate(int(time.Millisecond))
		if err := startPprof(*pprofAddr, log); err != nil {
			fatal("-pprof", "error", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("serving", "addr", *addr, "session_ttl", *ttl,
		"max_sessions", *maxSessions, "max_fleets", *maxFleets)

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
	srv.Close()
	log.Info("bye")
}

// startPprof serves net/http/pprof on its own listener, separate from the
// API mux so profiling is never reachable through the public address. The
// address must resolve to a loopback interface — profiles leak heap
// contents and must not be exposed.
func startPprof(addr string, log *slog.Logger) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("invalid address %q: %w", addr, err)
	}
	if ip := net.ParseIP(host); ip != nil {
		if !ip.IsLoopback() {
			return fmt.Errorf("address %q is not a loopback interface", addr)
		}
	} else if host != "localhost" {
		return fmt.Errorf("address %q is not a loopback interface", addr)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Info("pprof serving", "url", fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
	go func() {
		// ReadHeaderTimeout quiets gosec; the listener is loopback-only.
		s := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		if err := s.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("pprof serve failed", "error", err)
		}
	}()
	return nil
}
