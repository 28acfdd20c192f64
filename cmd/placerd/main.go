// Command placerd serves the placement flow as a job server: an HTTP
// JSON API that accepts Bookshelf placement jobs, runs them on a bounded
// worker pool, and streams per-round progress live over Server-Sent
// Events.
//
// Usage:
//
//	placerd [-addr :8080] [-queue 16] [-jobs 1] [-allow-dir bench/] [-state-dir state/]
//
// Submit a job and follow it:
//
//	curl -s localhost:8080/jobs -d '{"synth":"sb-a"}'
//	curl -N localhost:8080/jobs/job-000001/events
//	curl -s localhost:8080/jobs/job-000001/report | jq .rounds
//
// SIGINT/SIGTERM triggers a graceful drain: in-flight jobs get -drain to
// finish, then are canceled through their contexts (observed within one
// GP round or reroute batch).
//
// With -state-dir the daemon is durable: jobs are journaled (spec,
// progress events, placement checkpoints, artifacts), a restarted daemon
// recovers them — re-enqueueing interrupted jobs and resuming each from
// its last checkpoint — and completed results are cached in a
// content-addressed store so an identical resubmission is answered
// instantly without running the placer.
//
// # Fleet modes
//
// placerd can also run as part of a fleet (internal/fleet):
//
//	placerd -coordinator -addr :8080
//	placerd -join http://coordinator:8080 -addr :8081
//
// A coordinator serves the same /jobs API as a single daemon (the same
// handlers, honoring -max-body and -pprof) but runs nothing itself: it
// leases jobs to joined workers, reassigns them when a worker dies
// mid-job (resuming from the last fetched checkpoint), and stitches
// every worker's progress events into one gapless SSE stream per job. A worker with -join runs the normal placerd service and
// additionally registers with the coordinator and heartbeats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/fleet"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "placerd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		queue    = flag.Int("queue", 16, "bounded job queue size (submissions beyond it get 429)")
		jobs     = flag.Int("jobs", 1, "jobs run concurrently")
		workers  = flag.Int("workers", 0, "per-job kernel worker count (0 = auto, honors REPRO_WORKERS)")
		congSrc  = flag.String("congestion-source", "", "default routability congestion signal for jobs that don't pick one: route or estimate")
		routeLst = flag.Int("route-last-rounds", 0, "default trailing router rounds for estimate-mode jobs (0 = core default 1)")
		allowDir = flag.String("allow-dir", "", "directory tree .aux path jobs may reference (empty = path jobs disabled)")
		stateDir = flag.String("state-dir", "", "durable state directory: job journal, checkpoints and artifact cache (empty = in-memory only)")
		storeMax = flag.Int64("store-max-bytes", 0, "artifact cache size bound in bytes (0 = 256 MiB, negative = unbounded; needs -state-dir)")
		ckEvery  = flag.Int("checkpoint-every", 1, "lambda rounds between job checkpoints (needs -state-dir)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline before in-flight jobs are canceled")
		maxBody  = flag.Int64("max-body", 32<<20, "submission body size limit in bytes")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		verbose  = flag.Bool("verbose", false, "debug logging (shorthand for -log-level debug)")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")

		coordinator = flag.Bool("coordinator", false, "run as a fleet coordinator (leases jobs to joined workers instead of running them)")
		join        = flag.String("join", "", "coordinator base URL to register this worker with (e.g. http://host:8080)")
		advertise   = flag.String("advertise", "", "base URL the coordinator reaches this worker under (default: derived from the bound listen address)")
		lease       = flag.Duration("lease", 15*time.Second, "coordinator: assignment lease TTL (renewed by progress events and heartbeats)")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "coordinator: heartbeat interval advertised to workers")
		retryBudget = flag.Int("retry-budget", 3, "coordinator: reassignments per job before it is marked failed")
	)
	showVersion := flag.Bool("version", false, "print build version (go version + vcs revision) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String())
		return nil
	}
	if *coordinator && *join != "" {
		return fmt.Errorf("-coordinator and -join are mutually exclusive")
	}
	switch *congSrc {
	case "", "route", "estimate":
	default:
		return fmt.Errorf("bad -congestion-source %q (want route or estimate)", *congSrc)
	}

	if *verbose {
		*logLevel = "debug"
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", *logLevel)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))

	// Bind before anything else so -addr :0 works and the actual address
	// can be logged (tests and fleet quickstarts parse it).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Both modes serve the same /jobs handlers with the same options.
	apiOpt := serve.ServerOptions{MaxBodyBytes: *maxBody, Pprof: *pprofOn}
	if *coordinator {
		return runCoordinator(ctx, stop, ln, bound, logger, apiOpt, coordinatorConfig{
			queue: *queue, workers: *workers, allowDir: *allowDir,
			stateDir: *stateDir, storeMax: *storeMax,
			lease: *lease, heartbeat: *heartbeat, retryBudget: *retryBudget,
			drain: *drain,
		})
	}

	mgr, err := serve.NewManager(serve.Options{
		QueueSize:        *queue,
		Jobs:             *jobs,
		Workers:          *workers,
		CongestionSource: *congSrc,
		RouteLastRounds:  *routeLst,
		AllowDir:         *allowDir,
		StateDir:         *stateDir,
		StoreMaxBytes:    *storeMax,
		CheckpointEvery:  *ckEvery,
		Logger:           logger,
	})
	if err != nil {
		ln.Close()
		return err
	}
	srv := &http.Server{Handler: serve.NewServer(mgr, apiOpt)}

	var agent *fleet.Agent
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = advertiseURL(bound)
		}
		agent, err = fleet.StartAgent(fleet.AgentOptions{
			Coordinator: *join,
			Advertise:   adv,
			Capacity:    *jobs,
			Manager:     mgr,
			Logger:      logger,
		})
		if err != nil {
			ln.Close()
			return err
		}
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("placerd listening", "addr", bound, "queue", *queue, "jobs", *jobs, "join", *join)
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	logger.Info("draining", "deadline", *drain)

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if agent != nil {
		// Deregister first so the coordinator requeues this worker's jobs
		// immediately rather than waiting out their leases.
		if err := agent.Close(dctx); err != nil {
			logger.Warn("fleet deregistration failed", "err", err)
		}
	}
	if err := mgr.Shutdown(dctx); err != nil {
		logger.Warn("drain deadline hit, jobs canceled", "err", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

type coordinatorConfig struct {
	queue, workers, retryBudget int
	allowDir, stateDir          string
	storeMax                    int64
	lease, heartbeat, drain     time.Duration
}

func runCoordinator(ctx context.Context, stop func(), ln net.Listener, bound string, logger *slog.Logger, apiOpt serve.ServerOptions, cfg coordinatorConfig) error {
	coord, err := fleet.NewCoordinator(fleet.Options{
		QueueSize:      cfg.queue,
		LeaseTTL:       cfg.lease,
		HeartbeatEvery: cfg.heartbeat,
		RetryBudget:    cfg.retryBudget,
		AllowDir:       cfg.allowDir,
		Workers:        cfg.workers,
		StateDir:       cfg.stateDir,
		StoreMaxBytes:  cfg.storeMax,
		Logger:         logger,
	})
	if err != nil {
		ln.Close()
		return err
	}
	srv := &http.Server{Handler: fleet.NewServer(coord, apiOpt)}

	errc := make(chan error, 1)
	go func() {
		logger.Info("placerd coordinator listening", "addr", bound, "queue", cfg.queue, "lease", cfg.lease)
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("coordinator shutting down", "deadline", cfg.drain)

	dctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := coord.Shutdown(dctx); err != nil {
		logger.Warn("coordinator shutdown deadline hit", "err", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// advertiseURL turns the bound listen address into a URL the coordinator
// can dial. A wildcard host (":8081", "0.0.0.0", "::") is rewritten to
// loopback — good for single-machine fleets; multi-host fleets should
// pass -advertise explicitly.
func advertiseURL(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return "http://" + bound
	}
	switch host {
	case "", "0.0.0.0", "::":
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
