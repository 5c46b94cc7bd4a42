// Command icpp98worker is the cluster worker: it registers with a
// -cluster-enabled icpp98d coordinator, pulls leased solve jobs, runs them
// on a local solver pool (one slot per -slots, GOMAXPROCS by default), and
// streams progress and results back over HTTP/JSON.
//
//	icpp98d -addr :8098 -cluster &          # the coordinator
//	icpp98worker -coordinator http://localhost:8098 -slots 8
//
// Add workers on as many machines as you like; the daemon's job API is
// unchanged, and its own pool slots take the queued jobs no worker has a
// free slot for (all of them when no workers are registered). SIGINT/SIGTERM drain gracefully: in-flight jobs are handed
// back to the coordinator for re-leasing, and the worker leaves the
// cluster, before the process exits.
//
// A coordinator restart is survivable: the worker keeps solving through
// the outage, re-registers when the daemon answers again, and presents
// its held lease tokens — a durable-store (-store-dir) coordinator adopts
// them within its -adopt-grace window and the solves conclude normally.
// Worker and coordinator must speak the same cluster protocol version; a
// mismatch is refused at registration with a protocol_mismatch error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cluster"
)

func main() {
	coordinator := flag.String("coordinator", "http://localhost:8098", "coordinator base URL (an icpp98d started with -cluster)")
	name := flag.String("name", "", "worker label in listings (default: hostname)")
	slots := flag.Int("slots", 0, "concurrent solves (0 = GOMAXPROCS)")
	quiet := flag.Bool("quiet", false, "suppress per-job log lines")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "icpp98worker: "+format+"\n", args...)
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		logf("bad -log-level %q: %v", *logLevel, err)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, opts))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, opts))
	default:
		logf("bad -log-format %q (want text or json)", *logFormat)
		os.Exit(2)
	}
	w := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: *coordinator,
		Name:        *name,
		Slots:       *slots,
		Logf: func(format string, args ...any) {
			if !*quiet {
				logf(format, args...)
			}
		},
		Logger: logger,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		logf("%v", err)
		os.Exit(1)
	}
	logf("drained, exiting")
}
