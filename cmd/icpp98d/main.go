// Command icpp98d is the network solve daemon: it serves the HTTP/JSON job
// API of internal/server over the engine registry and solver pool, so any
// client can submit scheduling instances, poll or stream their progress,
// and fetch finished schedules without linking the solver.
//
//	icpp98d -addr :8098 -workers 8 -store 4096 -ttl 30m
//
// With -store-dir the job store is file-backed (append-only WAL compacted
// into a snapshot): a restarted daemon recovers its retained jobs —
// finished results stay fetchable, and with -cluster, jobs that were
// leased to a worker mid-flight are resumed: the lease journal rides the
// same WAL, and a worker that long-polls back within -adopt-grace presents
// its lease token and keeps solving (leases nobody reclaims are re-queued
// without charging the job's retry budget). Mid-flight jobs without a
// live lease read failed with an "interrupted" error, as before.
// Identical submissions are answered from a
// content-addressed schedule cache (-cache-bytes budgets it; submit with
// "cache":"bypass" to force a fresh solve). /metrics serves Prometheus
// text-format counters and latency histograms, and -debug-addr serves
// net/http/pprof on a separate, private port. Every job carries a trace ID
// from submission: GET /v1/jobs/{id}/trace returns its lifecycle spans and
// sampled search telemetry, -log-format/-log-level shape the structured
// logs (trace_id on every job record), and -slow-job flags stragglers with
// their final telemetry summary. See docs/OBSERVABILITY.md.
//
// Submit with curl (see docs/API.md for the full API):
//
//	curl -s localhost:8098/v1/jobs -d '{
//	  "graph_text": "graph app\nnode 0 2\nnode 1 3\nedge 0 1 1\n",
//	  "system": "ring:3", "engine": "astar"}'
//
// or with the bundled client:
//
//	icpp98 client -addr http://localhost:8098 submit -engine astar -procs ring:3 -wait g.tg
//
// With -cluster the daemon embeds the internal/cluster coordinator, whose
// queue becomes the daemon's only job queue: icpp98worker processes
// register over /v1/workers and lease queued jobs (with heartbeat-based
// failover back onto survivors), and the daemon's own pool slots take the
// jobs no worker has a free slot for — every job, when no workers are
// registered. See DESIGN.md §9.
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight searches are
// cancelled through their job contexts (each returns its best incumbent
// and is recorded as cancelled) before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served on -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// newLogger builds the daemon's structured logger: text or JSON records on
// stderr, filtered at the given level. Every job-scoped record carries the
// job's trace_id, so `grep <trace_id>` (or a log pipeline filter) pulls one
// job's whole story out of a busy daemon's stream.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func main() {
	addr := flag.String("addr", ":8098", "listen address")
	workers := flag.Int("workers", 0, "max concurrently running jobs (0 = GOMAXPROCS)")
	storeCap := flag.Int("store", 1024, "max retained jobs (active + finished)")
	ttl := flag.Duration("ttl", 15*time.Minute, "how long finished jobs stay fetchable")
	clustered := flag.Bool("cluster", false, "accept icpp98worker registrations and lease jobs to them")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "with -cluster: re-queue a leased job unreported for this long")
	workerTimeout := flag.Duration("worker-timeout", 10*time.Second, "with -cluster: deregister a worker silent for this long")
	jobAttempts := flag.Int("job-attempts", 3, "with -cluster: attempts a job may lose to worker death/expiry before it fails")
	adoptGrace := flag.Duration("adopt-grace", 0, "with -cluster and -store-dir: how long after a restart workers may reclaim recovered leases (0 = 2×lease-ttl)")
	backlog := flag.Int("backlog-per-slot", 0, "503 submissions once active jobs reach this × aggregate capacity (0 = store-bound only)")
	storeDir := flag.String("store-dir", "", "persist jobs under this directory (WAL + snapshot); restart recovers them. Empty = in-memory")
	cacheBytes := flag.Int64("cache-bytes", 0, "schedule-cache byte budget (0 = 64 MiB, negative = disable)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	slowJob := flag.Duration("slow-job", 0, "log a warning with the final telemetry summary for jobs slower end-to-end than this (0 = disabled)")
	sampleInterval := flag.Duration("sample-interval", 0, "search-telemetry sampling cadence (0 = 250ms default)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icpp98d:", err)
		os.Exit(1)
	}

	srv, err := server.Open(server.Config{
		Workers: *workers, StoreCap: *storeCap, TTL: *ttl, BacklogPerSlot: *backlog,
		StoreDir: *storeDir, CacheBytes: *cacheBytes,
		Logger: logger, SlowJob: *slowJob, SampleInterval: *sampleInterval,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "icpp98d:", err)
		os.Exit(1)
	}
	var coord *cluster.Coordinator
	if *clustered {
		coord = cluster.NewCoordinator(cluster.Config{
			LeaseTTL:      *leaseTTL,
			WorkerTimeout: *workerTimeout,
			MaxAttempts:   *jobAttempts,
			AdoptGrace:    *adoptGrace,
			Logger:        logger,
			Leases:        srv.LeaseStore(),
		})
		srv.EnableCluster(coord)
	}
	// Re-offer recovered mid-flight jobs before the listener opens: the
	// coordinator parks their journaled leases for adoption, so a worker
	// whose first request races the resume still finds its lease waiting.
	if resumed := srv.ResumeRecovered(); resumed > 0 {
		logger.Info("resumed recovered jobs", "jobs", resumed)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	// pprof stays off the public mux: the job API port never exposes the
	// profiler, and the debug port serves nothing but it (DefaultServeMux
	// registration by the pprof import).
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "icpp98d: debug listener:", err)
			}
		}()
	}
	mode := "local pool only"
	if *clustered {
		mode = "cluster coordinator"
	}
	store := "in-memory"
	if *storeDir != "" {
		store = *storeDir
	}
	fmt.Fprintf(os.Stderr, "icpp98d: serving on %s (workers=%d store=%d ttl=%v jobs=%s, %s)\n",
		*addr, *workers, *storeCap, *ttl, store, mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "icpp98d:", err)
		os.Exit(1)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "icpp98d: %v, shutting down\n", got)
	}

	// Cancel the jobs first: that unblocks the long-lived /events streams
	// (which wait on the jobs' terminal states) and frees the workers, so
	// the handler drain below completes promptly instead of riding out the
	// whole timeout whenever a client is mid-stream.
	srv.Close()
	if coord != nil {
		coord.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx) // stop accepting, drain handlers
}
