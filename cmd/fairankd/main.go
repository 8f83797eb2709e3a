// Command fairankd serves FaiRank's interactive explorer: the JSON API
// and the embedded single-page UI reproducing the workflow of the
// paper's Figure 3 (configuration box, side-by-side partitioning-tree
// panels, per-node statistics).
//
// Usage:
//
//	fairankd [-addr :8080] [-preset crowdsourcing] [-n 2000] [-seed 1]
//
// The server starts with the paper's Table 1 dataset plus one
// generated marketplace population registered, ready to explore.
//
// fairankd is built to be left running: the http.Server carries
// read/write/idle timeouts (no Slowloris hole), every route has a
// configurable deadline threaded into the solver, saturation sheds
// load with 429 + Retry-After instead of queueing unboundedly, and
// SIGINT/SIGTERM drains gracefully — in-flight audits either finish
// within the drain timeout or persist a resumable partial snapshot
// (with -audit-dir). See README "Operating fairankd".
//
// Observability: GET /metrics serves Prometheus text, GET /api/traces
// the recent request traces, and -debug-addr exposes net/http/pprof
// on a separate listener (never the public one). Logs are structured
// (log/slog, text on stderr); -log-level debug adds one line per
// completed request with its request ID.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers on http.DefaultServeMux, served only via -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	fairank "repro"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	preset := flag.String("preset", "crowdsourcing", "initial marketplace preset (empty to skip)")
	n := flag.Int("n", 2000, "initial population size")
	seed := flag.Uint64("seed", 1, "random seed for the initial population")
	maxScopes := flag.Int("max-cached-scopes", 64, "bound on retained memoization scopes, LRU-evicted (0 = unbounded)")
	auditDir := flag.String("audit-dir", "", "persist audit snapshots under this directory (enables incremental re-audits and GET /api/audit/history)")

	maxReads := flag.Int("max-reads", 256, "max in-flight cheap requests (listings, history, UI)")
	maxHeavy := flag.Int("max-heavy", 4, "max in-flight solver requests (quantify/mitigate/audit/stream)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "how long a request waits for a slot before a 429")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) and busy (503) responses")
	quantifyTimeout := flag.Duration("quantify-timeout", 30*time.Second, "per-request deadline for quantify/mitigate (0 = none)")
	auditTimeout := flag.Duration("audit-timeout", 5*time.Minute, "per-request deadline for blocking audits (0 = none; SSE streams are exempt)")
	heartbeat := flag.Duration("stream-heartbeat", 15*time.Second, "SSE comment-heartbeat interval (<0 disables)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
	writeTimeout := flag.Duration("write-timeout", 10*time.Minute, "http.Server WriteTimeout (SSE streams exempt themselves)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests to finish or snapshot")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off; keep it private)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "fairankd: bad -log-level:", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	sess, m, err := buildSession(*preset, *n, *seed, *maxScopes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if m != nil {
		logger.Info("registered dataset", "name", m.Name, "workers", m.Workers.Len())
		for _, j := range m.Jobs {
			logger.Info("job", "name", j.Name, "function", j.Function)
		}
	}
	srv, err := fairank.NewExplorerServer(sess, fairank.ServeLimits{
		MaxReads:        *maxReads,
		MaxHeavy:        *maxHeavy,
		QueueWait:       *queueWait,
		RetryAfter:      *retryAfter,
		QuantifyTimeout: *quantifyTimeout,
		AuditTimeout:    *auditTimeout,
		StreamHeartbeat: *heartbeat,
	}, *auditDir, fairank.WithServerLogger(logger))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairankd:", err)
		os.Exit(1)
	}
	if *auditDir != "" {
		logger.Info("audit snapshots enabled", "dir", *auditDir)
	}

	if *debugAddr != "" {
		// pprof registers on the default mux; serving that mux on a
		// separate listener keeps profiling off the public API surface.
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, http.DefaultServeMux); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// SIGINT/SIGTERM drains: stop accepting, refuse new work, cancel
	// in-flight solver runs (long audits persist resumable partial
	// snapshots), then close within the drain timeout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		srv.Drain()
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			httpSrv.Close()
		}
	}()

	logger.Info("FaiRank explorer listening", "addr", *addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "fairankd:", err)
		os.Exit(1)
	}
	<-drained
	logger.Info("drained and stopped")
}
