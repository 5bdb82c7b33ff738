// Command iddqserve runs IDDQ-testable partition synthesis as a
// crash-safe multi-tenant HTTP service. Clients POST a gate-level
// netlist (bench text, or a JSON spec with options) to /jobs and get a
// content-addressed job ID; a bounded worker pool runs each job through
// the full core synthesis flow — evolution optimizer, retry/degrade
// loop, static partition audit — under a per-job timeout, with progress
// streamed over SSE at /jobs/{id}/events and the durable result at
// /jobs/{id}/result.
//
// Usage:
//
//	iddqserve [-addr :8080] [-dir data] [-workers 2] [-queue-cap 64]
//	          [-job-timeout 5m] [-job-attempts 2] [-checkpoint-every 5]
//	          [-seed 1] [-timeout 0] [-chaos seed=1,rate=0.1,sites=...]
//	          [-retain-jobs 0] [-retain-age 0] [-disk-budget 0]
//	          [-maintenance-every 2s]
//	          [-debug-addr :6060] [-metrics run.json]
//	          [-log-format text|json] [-log-level warn] [-trace-slowest 8]
//
// Durability is the service's contract. Every job lifecycle transition
// lands in an append-only journal (crash-safe atomic writes) and every
// optimizer checkpoints its state, so a SIGKILL'd server restarts over
// the same -dir, replays the journal, re-enqueues the unfinished jobs
// and resumes each from its checkpoint — finishing bit-identically to a
// run that was never interrupted (scripts/serve_soak.sh proves this).
//
// Backpressure is explicit: when the bounded queue is full, submissions
// get 429 with a Retry-After estimate; per-tenant round-robin dispatch
// keeps one flooding tenant from starving the rest. Identical
// submissions (same netlist structure and options, any tenant) dedupe
// onto one job via the content hash.
//
// The storage lifecycle is bounded: -retain-jobs / -retain-age evict
// the oldest terminal jobs (queued and running jobs are never evicted),
// and -disk-budget caps the data directory — above it maintenance
// evicts terminal jobs oldest-first and, if the directory still
// overflows (or the disk reports ENOSPC), sheds new submissions with
// 503 + Retry-After while in-flight jobs finish, recovering
// automatically once space returns. /healthz names the degradation.
//
// -chaos arms chaos admission: the deterministic fault schedule is
// injected into every job's failure surfaces (worker pool, estimator,
// checkpoint/journal filesystem), and the server refuses all traffic —
// /healthz 503 — until a self-test job has survived the faults end to
// end with a partcheck-valid result.
//
// The first SIGINT/SIGTERM (or an expired -timeout) stops the service
// gracefully: in-flight jobs interrupt at their next generation
// boundary and persist checkpoints, the journal stays consistent, and
// the HTTP listener drains. A second signal hard-exits.
//
// Exit status (the runctl contract, shared with iddqpart and
// iddqstudy): 0 clean exit, 1 generic failure, 2 usage error, 3 the
// -timeout serving budget expired, 4 stopped by the first
// SIGINT/SIGTERM, 5 named startup/serving failure, 130 forced exit on
// the second signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/fsx"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/obscli"
	"iddqsyn/internal/runctl"
	"iddqsyn/internal/serve"
)

// drainTimeout bounds the graceful HTTP drain at shutdown before the
// listener is force-closed.
const drainTimeout = 10 * time.Second

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "iddqserve:", err)
	}
	os.Exit(code)
}

func run() (code int, retErr error) {
	addr := flag.String("addr", ":8080", "listen address (e.g. :8080 or 127.0.0.1:0)")
	dir := flag.String("dir", "data", "data directory: job journal, specs, results, checkpoints")
	workers := flag.Int("workers", serve.DefaultWorkers, "job worker pool size")
	queueCap := flag.Int("queue-cap", serve.DefaultQueueCap, "admission queue bound (full queue answers 429)")
	jobTimeout := flag.Duration("job-timeout", serve.DefaultJobTimeout, "default per-job wall-clock budget (specs may set their own, bounded)")
	jobAttempts := flag.Int("job-attempts", serve.DefaultJobAttempts, "serve-level attempts per job before it is failed")
	ckptEvery := flag.Int("checkpoint-every", serve.DefaultCheckpointEvery, "per-job checkpoint cadence in generations")
	seed := flag.Int64("seed", 1, "seed for the service's retry-backoff jitter")
	retainJobs := flag.Int("retain-jobs", 0, "terminal jobs kept on disk; the oldest beyond this are evicted (0 = unbounded)")
	retainAge := flag.Duration("retain-age", 0, "terminal jobs older than this are evicted (0 = unbounded)")
	diskBudget := flag.Int64("disk-budget", 0, "data-directory size bound in bytes; above it terminal jobs are evicted and, failing that, new submissions are shed with 503 (0 = unbounded)")
	maintEvery := flag.Duration("maintenance-every", serve.DefaultMaintenanceEvery, "journal-compaction and retention/GC cadence")
	timeout := flag.Duration("timeout", 0, "serving wall-clock budget; on expiry the service shuts down gracefully (0 = none)")
	chaosSpec := flag.String("chaos", "", "inject deterministic faults per this schedule and gate admission on a self-test job surviving them")
	var oc obscli.Config
	oc.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		return runctl.ExitUsage, fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	orun, err := oc.Start(os.Stderr)
	if err != nil {
		return runctl.ExitFailure, err
	}
	defer func() {
		if ferr := orun.Finish("serve"); ferr != nil && retErr == nil {
			retErr = ferr
			code = runctl.ExitFailure
		}
	}()

	cfg := serve.Config{
		Dir:               *dir,
		Workers:           *workers,
		QueueCap:          *queueCap,
		JobTimeout:        *jobTimeout,
		JobAttempts:       *jobAttempts,
		CheckpointEvery:   *ckptEvery,
		Seed:              *seed,
		RetainJobs:        *retainJobs,
		RetainAge:         *retainAge,
		DiskBudget:        *diskBudget,
		MaintenanceEvery:  *maintEvery,
		SelfTestAdmission: *chaosSpec != "",
		Obs:               orun.Obs,
	}
	if *chaosSpec != "" {
		sched, err := chaos.ParseSchedule(*chaosSpec)
		if err != nil {
			return runctl.ExitUsage, err
		}
		inj := chaos.New(sched, orun.Obs)
		cfg.Chaos = inj
		cfg.FS = chaos.NewFS(fsx.OS{}, inj)
		fmt.Fprintf(os.Stderr, "iddqserve: chaos schedule active: %s (sites: %v); admission gated on self-test\n",
			sched, sched.MatchedSites())
	}
	s, err := serve.New(cfg)
	if err != nil {
		return runctl.ExitOptimizer, err
	}
	s.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		return runctl.ExitFailure, err
	}
	hsrv := obs.HardenedServerMax(s.Handler(), serve.MaxSubmitBytes)
	httpDone := make(chan error, 1)
	go func() { httpDone <- hsrv.Serve(ln) }()
	// The one line wrappers parse: the bound address on stdout.
	fmt.Printf("iddqserve: listening on %s (data dir %s, %d workers)\n",
		ln.Addr(), *dir, cfg.Workers)

	ctx, cancelTimeout := runctl.WithTimeout(context.Background(), *timeout, orun.Obs)
	defer cancelTimeout()
	ctx, stop := runctl.WithSignals(ctx, os.Stderr, orun.Obs)
	defer stop()

	if cfg.SelfTestAdmission {
		// Admission runs while the listener is already up: probes see an
		// honest 503 until the self-test job survives the fault schedule.
		go func() {
			if err := s.SelfTest(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "iddqserve: ADMISSION REFUSED: %v\n", err)
				orun.Obs.Log().Error("admission self-test failed", "err", err.Error())
				return
			}
			fmt.Fprintln(os.Stderr, "iddqserve: admission self-test passed; serving")
		}()
	}

	// Serve until the context ends (signal or -timeout) or the HTTP
	// server fails outright.
	select {
	case <-ctx.Done():
	case err := <-httpDone:
		s.Close()
		return runctl.ExitOptimizer, fmt.Errorf("http server: %w", err)
	}
	stop()

	// Shutdown ordering matters: stop the job engine first (in-flight
	// optimizers interrupt at generation boundaries and persist
	// checkpoints; every event stream closes, so SSE handlers drain),
	// then gracefully drain the HTTP listener with a hard-close backstop.
	s.Close()
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hsrv.Shutdown(dctx); err != nil {
		if cerr := hsrv.Close(); cerr != nil && !errors.Is(cerr, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "iddqserve: forced listener close: %v\n", cerr)
		}
	}
	<-httpDone
	return runctl.ExitCode(nil, context.Cause(ctx)), nil
}
