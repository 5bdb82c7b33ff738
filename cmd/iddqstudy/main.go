// Command iddqstudy reproduces every experiment beyond Table 1: the BIC
// sensor demo of figure 1, the group-shape effect of figure 2, the C17
// evolution trace of figures 3-5, the §5 convergence study, the §4
// ablations (Monte-Carlo descendants, lifetime), the estimator-pessimism
// bound, the optimizer comparison (evolution vs simulated annealing vs
// hill climbing), the sensor-technology table, the readout-schedule
// trade-off, the cost-aware technology-mapping study, the yield-vs-
// threshold sweep, the scan-chain study, and the delta-IDDQ comparison.
// The paper's figures and studies come from internal/experiments; the
// extension studies, from the optimizer comparison on, are defined here.
//
// Usage:
//
//	iddqstudy [-circuit c432] [-gens 120] [-seed 1] [-timeout 1h]
//	          [-study all|figure1|...] [-debug-addr :6060]
//	          [-metrics run.json] [-log-format text|json] [-log-level warn]
//	          [-trace-slowest 8]
//
// The batch is observable like iddqpart: -debug-addr serves live
// introspection of the study currently running, and -metrics writes the
// batch's cumulative telemetry snapshot when it finishes.
//
// With -study all, a failing study does not abort the batch: every
// requested study runs, each failure is reported to stderr, and the exit
// status is nonzero if any study failed. SIGINT/SIGTERM (or an expired
// -timeout) cancels the running optimizers at their next generation
// boundary — already-computed studies keep their output, the running one
// completes on its best-so-far state, and the remaining ones are skipped.
//
// Exit status (the runctl contract, shared with iddqpart and iddqserve):
// 0 all studies passed, 1 generic failure, 2 usage error, 3 the -timeout
// budget expired, 4 stopped by the first SIGINT/SIGTERM, 5 one or more
// studies failed with a named optimizer error, 130 forced exit on the
// second signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"iddqsyn/internal/evolution"
	"iddqsyn/internal/experiments"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/obscli"
	"iddqsyn/internal/runctl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the studies to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iddqstudy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	circuit := fs.String("circuit", "c432", "circuit for the per-circuit studies")
	gens := fs.Int("gens", 120, "evolution generation budget")
	seed := fs.Int64("seed", 1, "seed")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole batch (0 = none)")
	study := fs.String("study", "all",
		"which study to run: all, figure1, figure2, c17, convergence, ablations, pessimism, optimizers, sensors, schedule, techmap, sweep, yield, scan, delta")
	var oc obscli.Config
	oc.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return runctl.ExitOK
		}
		return runctl.ExitUsage
	}

	prm := evolution.DefaultParams()
	prm.MaxGenerations = *gens
	prm.Seed = *seed

	known := map[string]bool{"all": true, "figure1": true, "figure2": true,
		"c17": true, "convergence": true, "ablations": true, "pessimism": true,
		"optimizers": true, "sensors": true, "schedule": true, "techmap": true,
		"sweep": true, "yield": true, "scan": true, "delta": true}
	if !known[*study] {
		fmt.Fprintf(stderr, "iddqstudy: unknown study %q\n", *study)
		return runctl.ExitUsage
	}

	orun, err := oc.Start(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "iddqstudy:", err)
		return runctl.ExitFailure
	}

	ctx, cancelTimeout := runctl.WithTimeout(context.Background(), *timeout, orun.Obs)
	ctx, stop := runctl.WithSignals(ctx, stderr, orun.Obs)
	ctx = obs.NewContext(ctx, orun.Obs)

	var failed, skipped []string
	want := func(name string) bool { return *study == "all" || *study == name }
	runStudy := func(name string, f func() error) {
		if !want(name) {
			return
		}
		if ctx.Err() != nil {
			skipped = append(skipped, name)
			return
		}
		fmt.Fprintf(stdout, "=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(stderr, "iddqstudy: %s: %v\n", name, err)
			failed = append(failed, name)
		}
		fmt.Fprintln(stdout)
	}

	runStudy("figure1", func() error {
		res, err := experiments.Figure1Demo()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sensor: %s\n", res.Sensor.String())
		fmt.Fprintf(stdout, "fault-free: IDDQ=%.3gA -> %s\n", res.FaultFreeIDDQ, passFail(res.FaultFreePass))
		fmt.Fprintf(stdout, "with bridge: IDDQ=%.3gA -> %s\n", res.DefectIDDQ, passFail(res.DefectPass))
		return nil
	})

	runStudy("figure2", func() error {
		res, err := experiments.Figure2(3, 6)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "row partition    (1 cell of each type/module): worst îDD=%.3gmA, area/sensor=%.4g\n",
			1e3*res.RowMaxIDD, res.RowSensorArea/float64(res.RowModules))
		fmt.Fprintf(stdout, "column partition (same-type cells/module):     worst îDD=%.3gmA, area/sensor=%.4g\n",
			1e3*res.ColMaxIDD, res.ColSensorArea/float64(res.ColModules))
		fmt.Fprintf(stdout, "per-sensor area ratio column/row = %.2f (partition 1 preferred, as in the paper)\n",
			res.AreaRatio)
		return nil
	})

	runStudy("c17", func() error {
		res, err := experiments.C17Trace(ctx, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatC17Trace(res))
		return nil
	})

	runStudy("convergence", func() error {
		res, err := experiments.Convergence(ctx, *circuit, 8, prm)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s (%d gates): %.6g -> %.6g in %d generations (%d evaluations)\n",
			res.Circuit, res.Gates, res.StartCost, res.FinalCost, res.Generations, res.Evaluations)
		return nil
	})

	runStudy("ablations", func() error {
		mc, err := experiments.AblateMonteCarlo(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		lt, err := experiments.AblateLifetime(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-22s baseline %.6g  variant %.6g  (ratio %.3f)\n",
			mc.Feature, mc.Baseline, mc.Variant, mc.Variant/mc.Baseline)
		fmt.Fprintf(stdout, "%-22s baseline %.6g  variant %.6g  (ratio %.3f)\n",
			lt.Feature, lt.Baseline, lt.Variant, lt.Variant/lt.Baseline)
		return nil
	})

	runStudy("pessimism", func() error {
		points, err := experiments.Pessimism(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Fprintf(stdout, "module %2d: estimate %.3gmA | grid-aligned peak %.3gmA (x%.2f) | timing-sim peak %.3gmA (x%.2f)\n",
				p.Module, 1e3*p.Estimate, 1e3*p.Simulated, p.Ratio, 1e3*p.Timing, p.TimingRatio)
		}
		fmt.Fprintln(stdout, "(the §3.1 bound covers single transitions on the unit-delay grid; hazard")
		fmt.Fprintln(stdout, " multiplication under loaded delays can push the timing-simulated peak above it)")
		return nil
	})

	runStudy("optimizers", func() error {
		rows, err := optimizerComparison(ctx, *circuit, 8, prm)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, formatOptimizers(rows))
		return nil
	})

	runStudy("sensors", func() error {
		rows, err := sensorVariants(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, formatVariants(rows))
		return nil
	})

	runStudy("schedule", func() error {
		rows, err := scheduleStudy(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, formatSchedules(rows))
		return nil
	})

	runStudy("techmap", func() error {
		chosen, rows, err := techmapStudy(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-8v %5d gates  evolved cost %.6g\n", r.Style, r.Gates, r.Cost)
		}
		fmt.Fprintf(stdout, "mapper chose: %v\n", chosen)
		return nil
	})

	runStudy("sweep", func() error {
		points, err := experiments.WeightSweep(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatWeightSweep(points))
		return nil
	})

	runStudy("yield", func() error {
		points, zero, err := yieldStudy(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, formatYield(points))
		fmt.Fprintf(stdout, "smallest zero-overkill threshold: %.3g A (paper operating point: 1 µA)\n", zero)
		return nil
	})

	runStudy("scan", func() error {
		rows, err := scanStudy()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, formatScan(rows))
		return nil
	})

	runStudy("delta", func() error {
		rows, err := deltaStudy(ctx, *circuit, prm, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, formatDelta(rows))
		fmt.Fprintln(stdout, "(fixed = the paper's 1 µA comparator; delta = current-signature analysis)")
		return nil
	})

	// Released before the snapshot is written, so an expired budget is in it.
	cause := context.Cause(ctx)
	stop()
	cancelTimeout()
	obsFailed := false
	if err := orun.Finish(*circuit); err != nil {
		fmt.Fprintf(stderr, "iddqstudy: %v\n", err)
		obsFailed = true
	}
	if len(skipped) > 0 {
		fmt.Fprintf(stderr, "iddqstudy: cancelled before %v could run\n", skipped)
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "iddqstudy: %d of the requested studies failed: %v\n", len(failed), failed)
	}
	// The documented exit contract (see runctl): a batch cut short by
	// the -timeout budget or a signal reports that controlled stop, a
	// batch with failing studies reports a named optimizer failure, and
	// only a snapshot-write problem is a generic failure.
	switch {
	case cause != nil:
		return runctl.ExitCode(nil, cause)
	case len(failed) > 0:
		return runctl.ExitOptimizer
	case obsFailed:
		return runctl.ExitFailure
	}
	return runctl.ExitOK
}

func passFail(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
