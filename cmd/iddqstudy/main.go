// Command iddqstudy reproduces every experiment beyond Table 1: the BIC
// sensor demo of figure 1, the group-shape effect of figure 2, the C17
// evolution trace of figures 3-5, the §5 convergence study, the §4
// ablations (Monte-Carlo descendants, lifetime), the estimator-pessimism
// bound, the optimizer comparison (evolution vs simulated annealing vs
// hill climbing), the sensor-technology table, the readout-schedule
// trade-off, the cost-aware technology-mapping study, the yield-vs-
// threshold sweep, the scan-chain study, and the delta-IDDQ comparison.
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
	"flag"
	"fmt"
	"os"

	"iddqsyn/internal/evolution"
	"iddqsyn/internal/experiments"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/obscli"
	"iddqsyn/internal/runctl"
)

func main() {
	circuit := flag.String("circuit", "c432", "circuit for the per-circuit studies")
	gens := flag.Int("gens", 120, "evolution generation budget")
	seed := flag.Int64("seed", 1, "seed")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole batch (0 = none)")
	study := flag.String("study", "all",
		"which study to run: all, figure1, figure2, c17, convergence, ablations, pessimism, optimizers, sensors, schedule, techmap, sweep, yield, scan, delta")
	var oc obscli.Config
	oc.Register(flag.CommandLine)
	flag.Parse()

	prm := evolution.DefaultParams()
	prm.MaxGenerations = *gens
	prm.Seed = *seed

	known := map[string]bool{"all": true, "figure1": true, "figure2": true,
		"c17": true, "convergence": true, "ablations": true, "pessimism": true,
		"optimizers": true, "sensors": true, "schedule": true, "techmap": true,
		"sweep": true, "yield": true, "scan": true, "delta": true}
	if !known[*study] {
		fmt.Fprintf(os.Stderr, "iddqstudy: unknown study %q\n", *study)
		os.Exit(runctl.ExitUsage)
	}

	orun, err := oc.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iddqstudy:", err)
		os.Exit(runctl.ExitFailure)
	}

	ctx, cancelTimeout := runctl.WithTimeout(context.Background(), *timeout)
	defer cancelTimeout()
	ctx, stop := runctl.WithSignalsObs(ctx, os.Stderr, orun.Obs)
	defer stop()
	ctx = obs.NewContext(ctx, orun.Obs)

	var failed, skipped []string
	want := func(name string) bool { return *study == "all" || *study == name }
	run := func(name string, f func() error) {
		if !want(name) {
			return
		}
		if ctx.Err() != nil {
			skipped = append(skipped, name)
			return
		}
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "iddqstudy: %s: %v\n", name, err)
			failed = append(failed, name)
		}
		fmt.Println()
	}

	run("figure1", func() error {
		res, err := experiments.Figure1Demo()
		if err != nil {
			return err
		}
		fmt.Printf("sensor: %s\n", res.Sensor.String())
		fmt.Printf("fault-free: IDDQ=%.3gA -> %s\n", res.FaultFreeIDDQ, passFail(res.FaultFreePass))
		fmt.Printf("with bridge: IDDQ=%.3gA -> %s\n", res.DefectIDDQ, passFail(res.DefectPass))
		return nil
	})

	run("figure2", func() error {
		res, err := experiments.Figure2(3, 6)
		if err != nil {
			return err
		}
		fmt.Printf("row partition    (1 cell of each type/module): worst îDD=%.3gmA, area/sensor=%.4g\n",
			1e3*res.RowMaxIDD, res.RowSensorArea/float64(res.RowModules))
		fmt.Printf("column partition (same-type cells/module):     worst îDD=%.3gmA, area/sensor=%.4g\n",
			1e3*res.ColMaxIDD, res.ColSensorArea/float64(res.ColModules))
		fmt.Printf("per-sensor area ratio column/row = %.2f (partition 1 preferred, as in the paper)\n",
			res.AreaRatio)
		return nil
	})

	run("c17", func() error {
		res, err := experiments.C17Trace(ctx, *seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatC17Trace(res))
		return nil
	})

	run("convergence", func() error {
		res, err := experiments.ConvergenceFrom(ctx, *circuit, 8, prm)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%d gates): %.6g -> %.6g in %d generations (%d evaluations)\n",
			res.Circuit, res.Gates, res.StartCost, res.FinalCost, res.Generations, res.Evaluations)
		return nil
	})

	run("ablations", func() error {
		mc, err := experiments.AblateMonteCarlo(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		lt, err := experiments.AblateLifetime(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s baseline %.6g  variant %.6g  (ratio %.3f)\n",
			mc.Feature, mc.Baseline, mc.Variant, mc.Variant/mc.Baseline)
		fmt.Printf("%-22s baseline %.6g  variant %.6g  (ratio %.3f)\n",
			lt.Feature, lt.Baseline, lt.Variant, lt.Variant/lt.Baseline)
		return nil
	})

	run("pessimism", func() error {
		points, err := experiments.Pessimism(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Printf("module %2d: estimate %.3gmA | grid-aligned peak %.3gmA (x%.2f) | timing-sim peak %.3gmA (x%.2f)\n",
				p.Module, 1e3*p.Estimate, 1e3*p.Simulated, p.Ratio, 1e3*p.Timing, p.TimingRatio)
		}
		fmt.Println("(the §3.1 bound covers single transitions on the unit-delay grid; hazard")
		fmt.Println(" multiplication under loaded delays can push the timing-simulated peak above it)")
		return nil
	})

	run("optimizers", func() error {
		rows, err := experiments.OptimizerComparison(ctx, *circuit, 8, prm)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatOptimizers(rows))
		return nil
	})

	run("sensors", func() error {
		rows, err := experiments.SensorVariants(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatVariants(rows))
		return nil
	})

	run("schedule", func() error {
		rows, err := experiments.ScheduleStudy(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSchedules(rows))
		return nil
	})

	run("techmap", func() error {
		chosen, rows, err := experiments.TechmapStudy(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%-8v %5d gates  evolved cost %.6g\n", r.Style, r.Gates, r.Cost)
		}
		fmt.Printf("mapper chose: %v\n", chosen)
		return nil
	})

	run("sweep", func() error {
		points, err := experiments.WeightSweep(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatWeightSweep(points))
		return nil
	})

	run("yield", func() error {
		points, zero, err := experiments.YieldStudy(ctx, *circuit, prm)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatYield(points))
		fmt.Printf("smallest zero-overkill threshold: %.3g A (paper operating point: 1 µA)\n", zero)
		return nil
	})

	run("scan", func() error {
		rows, err := experiments.ScanStudy()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatScan(rows))
		return nil
	})

	run("delta", func() error {
		rows, err := experiments.DeltaStudy(ctx, *circuit, prm, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatDelta(rows))
		fmt.Println("(fixed = the paper's 1 µA comparator; delta = current-signature analysis)")
		return nil
	})

	obsFailed := false
	if err := orun.Finish(*circuit); err != nil {
		fmt.Fprintf(os.Stderr, "iddqstudy: %v\n", err)
		obsFailed = true
	}
	if len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "iddqstudy: cancelled before %v could run\n", skipped)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "iddqstudy: %d of the requested studies failed: %v\n", len(failed), failed)
	}
	// The documented exit contract (see runctl): a batch cut short by
	// the -timeout budget or a signal reports that controlled stop, a
	// batch with failing studies reports a named optimizer failure, and
	// only a snapshot-write problem is a generic failure.
	switch cause := context.Cause(ctx); {
	case cause != nil:
		os.Exit(runctl.ExitCode(nil, cause))
	case len(failed) > 0:
		os.Exit(runctl.ExitOptimizer)
	case obsFailed:
		os.Exit(runctl.ExitFailure)
	}
}

func passFail(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
