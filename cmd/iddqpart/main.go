// Command iddqpart synthesizes an IDDQ-testable design from a gate-level
// netlist: it partitions the circuit into BIC-sensor modules with the
// evolution-based algorithm (or the greedy standard baseline), sizes one
// Built-In Current sensor per module, and prints the design report.
//
// Usage:
//
//	iddqpart [-method evolution|standard] [-lib cells.lib] [-size N]
//	         [-modules K] [-d 10] [-rail 0.2] [-gens 250] [-seed 1]
//	         [-timeout 30m] [-checkpoint run.ckpt]
//	         [-checkpoint-every 10] [-resume run.ckpt] [-verify] [-v]
//	         [-debug-addr :6060] [-metrics run.json]
//	         [-log-format text|json] [-log-level warn] [-trace-slowest 8]
//	         [-chaos seed=1,rate=0.1,sites=fs.*] [-degrade=false]
//	         circuit.bench
//
// -chaos arms the deterministic fault-injection harness (package chaos):
// the one-line schedule seeds per-site fault streams over checkpoint and
// snapshot I/O, the evolution worker pool and the estimator boundary, so
// a failure scenario replays exactly from its spec line. -degrade
// (default true) makes the synthesis fall back to greedy standard
// partitioning when every optimizer attempt fails; the fallback is
// loudly marked DEGRADED on stderr, in the report and in the -metrics
// snapshot.
//
// The run is fully observable: -debug-addr serves live introspection
// (expvar, pprof, and a /runz JSON view of the optimizer's current
// generation and best cost), -metrics persists the run's complete
// telemetry — per-generation best-cost history, estimator-evaluation
// counts and latency histograms, mutation/Monte-Carlo acceptance, and the
// core.synthesize trace of the phases (-trace-slowest 0 leaves it out) —
// as a JSON snapshot, and -log-format/-log-level control the structured
// run log on stderr. -v is shorthand for -log-level debug and streams
// per-generation progress.
//
// -verify runs the static partition auditor (package partcheck) on the
// final design: exact gate cover, netlist consistency, the module
// estimates, and the discriminability requirement -d. Any violation is
// reported with the violated constraint named and the exit status is
// nonzero. Checkpoints are always audited structurally on load, so a
// hand-edited -resume file is rejected the same way.
//
// With no file argument, the netlist is read from standard input.
//
// Long evolution runs are fully run-controlled: a SIGINT or SIGTERM (or
// an expired -timeout) stops the optimizer at the next generation
// boundary, persists a checkpoint if -checkpoint is set, and prints the
// best-so-far design — a second signal hard-exits. `iddqpart -resume
// run.ckpt` continues a checkpointed run and, by the determinism of the
// seeded evolution strategy, finishes with exactly the result the
// uninterrupted run would have produced.
//
// Exit status (the runctl contract, shared with iddqstudy and
// iddqserve): 0 converged, 1 generic failure, 2 usage error, 3 -timeout
// expired (best-so-far design reported), 4 stopped by the first
// SIGINT/SIGTERM (best-so-far design reported), 5 named optimizer
// failure, 130 forced exit on the second signal.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"iddqsyn/internal/bench"
	"iddqsyn/internal/celllib"
	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/core"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/obscli"
	"iddqsyn/internal/partcheck"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/runctl"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "iddqpart:", err)
	}
	os.Exit(code)
}

func run() (code int, retErr error) {
	method := flag.String("method", "evolution", "partitioning method: evolution or standard")
	libPath := flag.String("lib", "", "cell library file (default: built-in 1µm CMOS library)")
	size := flag.Int("size", 0, "module size (0 = estimate from averaged parameters)")
	modules := flag.Int("modules", 0, "standard method: target module count (overrides -size)")
	disc := flag.Float64("d", 10, "required discriminability d")
	rail := flag.Float64("rail", 0.2, "maximum virtual-rail perturbation r*, volts")
	gens := flag.Int("gens", 0, "override evolution generation budget")
	seed := flag.Int64("seed", 1, "evolution seed")
	timeout := flag.Duration("timeout", 0, "wall-clock budget; on expiry the best-so-far design is reported (0 = none)")
	ckptPath := flag.String("checkpoint", "", "write crash-safe optimizer checkpoints to this file")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in generations (0 = default)")
	resume := flag.String("resume", "", "resume an evolution run from this checkpoint file")
	verify := flag.Bool("verify", false, "statically verify the final partition (exact cover, netlist consistency, discriminability) and fail on any violation")
	chaosSpec := flag.String("chaos", "", "inject deterministic faults per this schedule, e.g. seed=1,rate=0.1,sites=fs.*|estimate.nan (robustness testing)")
	degrade := flag.Bool("degrade", true, "fall back to standard partitioning when every optimizer attempt fails (the result is marked DEGRADED)")
	verbose := flag.Bool("v", false, "trace evolution progress (shorthand for -log-level debug)")
	var oc obscli.Config
	oc.Register(flag.CommandLine)
	flag.Parse()
	oc.Verbose = *verbose

	c, err := readCircuit(flag.Arg(0))
	if err != nil {
		return runctl.ExitFailure, err
	}

	opt := core.Options{ModuleSize: *size, Modules: *modules}
	switch *method {
	case "evolution":
		opt.Method = core.MethodEvolution
	case "standard":
		opt.Method = core.MethodStandard
	default:
		return runctl.ExitUsage, fmt.Errorf("unknown method %q", *method)
	}
	lib := celllib.Default()
	if *libPath != "" {
		f, err := os.Open(*libPath)
		if err != nil {
			return runctl.ExitFailure, err
		}
		lib, err = celllib.ReadLibrary(f)
		_ = f.Close() // read-only; a close error cannot corrupt anything
		if err != nil {
			return runctl.ExitFailure, err
		}
	}
	a, err := celllib.Annotate(c, lib)
	if err != nil {
		return runctl.ExitFailure, err
	}
	prm := estimate.DefaultParams()
	prm.RailLimit = *rail
	opt.Estimator = estimate.New(a, prm)
	cons := partition.Constraints{MinDiscriminability: *disc}
	opt.Constraints = &cons
	eprm := evolution.DefaultParams()
	eprm.Seed = *seed
	if *gens > 0 {
		eprm.MaxGenerations = *gens
	}
	opt.Evolution = &eprm

	// Run control: checkpointing, resume, wall-clock budget, signals.
	ckpt := *ckptPath
	if *resume != "" {
		ck, err := evolution.LoadCheckpoint(*resume)
		if err != nil {
			return runctl.ExitFailure, err
		}
		opt.Resume = ck
		if ckpt == "" {
			ckpt = *resume // keep checkpointing the resumed run in place
		}
	}
	if ckpt != "" {
		opt.Control = &evolution.Control{CheckpointPath: ckpt, CheckpointEvery: *ckptEvery}
	}
	if opt.Method != core.MethodEvolution && (ckpt != "" || opt.Resume != nil) {
		return runctl.ExitUsage, fmt.Errorf("-checkpoint/-resume apply to -method evolution only")
	}

	// Observability: structured run log, live debug server, -metrics
	// snapshot. Finish always runs — the telemetry of a failed or
	// interrupted run is exactly the evidence worth keeping.
	orun, err := oc.Start(os.Stderr)
	if err != nil {
		return runctl.ExitFailure, err
	}
	defer func() {
		if ferr := orun.Finish(c.Name); ferr != nil && retErr == nil {
			retErr = ferr
			code = runctl.ExitFailure
		}
	}()
	opt.Obs = orun.Obs
	opt.Degrade = *degrade && opt.Method == core.MethodEvolution

	// Fault injection: one seeded schedule drives every chaos site — the
	// checkpoint/snapshot filesystem, the evolution worker pool and the
	// estimator boundary all observe the same replayable injector.
	var inj *chaos.Injector
	if *chaosSpec != "" {
		sched, err := chaos.ParseSchedule(*chaosSpec)
		if err != nil {
			return runctl.ExitUsage, err
		}
		inj = chaos.New(sched, orun.Obs)
		if opt.Control == nil {
			opt.Control = &evolution.Control{}
		}
		opt.Control.FS = chaos.NewFS(nil, inj)
		fmt.Fprintf(os.Stderr, "iddqpart: chaos schedule active: %s (sites: %v)\n",
			sched, sched.MatchedSites())
	}

	ctx, cancelTimeout := runctl.WithTimeout(context.Background(), *timeout, orun.Obs)
	defer cancelTimeout()
	ctx, stop := runctl.WithSignals(ctx, os.Stderr, orun.Obs)
	defer stop()

	res, err := core.SynthesizeContext(chaos.NewContext(ctx, inj), c, opt)
	if err != nil {
		// The documented exit-code contract: a failure provoked by the
		// -timeout deadline or a delivered signal classifies as that
		// controlled stop; anything else is a named optimizer failure.
		return runctl.ExitCode(err, context.Cause(ctx)), err
	}
	stop()
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "iddqpart: DEGRADED: every optimizer attempt failed; reporting the standard-partitioning fallback (cause: %v)\n",
			res.DegradedErr)
	}
	if ev := res.Evolution; ev != nil && ev.Interrupted {
		fmt.Fprintf(os.Stderr, "iddqpart: %v\n", ev.Err)
		if ckpt != "" {
			fmt.Fprintf(os.Stderr, "iddqpart: checkpoint saved to %s — resume with: iddqpart -resume %s %s\n",
				ckpt, ckpt, flag.Arg(0))
		}
		fmt.Fprintln(os.Stderr, "iddqpart: reporting the best-so-far design")
	}
	fmt.Print(res.Report())
	if *verify {
		r := partcheck.VerifyPartition(res.Partition, partcheck.Feasibility(*disc))
		fmt.Fprintln(os.Stderr, r)
		if err := r.Err(); err != nil {
			return runctl.ExitFailure, err
		}
	}
	if ev := res.Evolution; ev != nil && ev.Interrupted {
		// Best-so-far result reported, but the run was cut short: exit
		// with the documented timeout/interrupt status so callers can
		// tell a stopped run from a converged one.
		return runctl.ExitCode(nil, context.Cause(ctx)), nil
	}
	return runctl.ExitOK, nil
}

func readCircuit(path string) (*circuit.Circuit, error) {
	var r io.Reader = os.Stdin
	name := "stdin"
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
		name = path
	}
	return bench.Read(r, name)
}
