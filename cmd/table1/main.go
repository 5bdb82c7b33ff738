// Command table1 regenerates the paper's Table 1: standard vs
// evolution-based partitioning across the ISCAS85 benchmark set.
//
// Usage:
//
//	table1 [-circuits c1908,c2670] [-gens 250] [-seed 1] [-timeout 2h]
//	       [-debug-addr :6060] [-metrics run.json]
//	       [-log-format text|json] [-log-level warn] [-trace-slowest 8]
//
// The batch is observable like iddqpart: -debug-addr serves live
// introspection of the optimizer currently running, and -metrics writes
// the batch's cumulative telemetry snapshot when it finishes.
//
// SIGINT/SIGTERM (or an expired -timeout) stops the run at the next
// generation boundary; rows computed so far are discarded, so interrupt a
// long run by narrowing -circuits instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"iddqsyn/internal/experiments"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/obscli"
	"iddqsyn/internal/report"
	"iddqsyn/internal/runctl"
)

func main() {
	circuitsFlag := flag.String("circuits", "", "comma-separated circuit subset (default: all of Table 1)")
	gens := flag.Int("gens", 0, "override evolution generation budget")
	seed := flag.Int64("seed", 1, "evolution seed")
	timeout := flag.Duration("timeout", 0, "wall-clock budget (0 = none)")
	csvPath := flag.String("csv", "", "also write the rows as CSV to this file")
	mdPath := flag.String("md", "", "also write the rows as a Markdown table to this file")
	var oc obscli.Config
	oc.Register(flag.CommandLine)
	flag.Parse()

	cfg := experiments.Table1Config{}
	if *circuitsFlag != "" {
		cfg.Circuits = strings.Split(*circuitsFlag, ",")
	}
	prm := experiments.Table1DefaultEvolution()
	prm.Seed = *seed
	if *gens > 0 {
		prm.MaxGenerations = *gens
	}
	cfg.Evolution = &prm

	orun, err := oc.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}

	ctx, cancelTimeout := runctl.WithTimeout(context.Background(), *timeout)
	defer cancelTimeout()
	ctx, stop := runctl.WithSignalsObs(ctx, os.Stderr, orun.Obs)
	defer stop()
	ctx = obs.NewContext(ctx, orun.Obs)

	rows, err := experiments.Table1(ctx, cfg)
	ferr := orun.Finish("table1")
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	if ferr != nil {
		fmt.Fprintln(os.Stderr, "table1:", ferr)
		os.Exit(1)
	}
	fmt.Print(experiments.FormatTable1(rows))
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%s: evolution converged in %d generations (%d evaluations); weighted cost %.6g vs standard %.6g\n",
			r.Circuit, r.Generations, r.Evaluations, r.CostEvolution, r.CostStandard)
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(f *os.File) error { return report.Table1CSV(f, rows) }); err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
	}
	if *mdPath != "" {
		if err := writeFile(*mdPath, func(f *os.File) error { return report.Table1Markdown(f, rows) }); err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
	}
}

func writeFile(path string, emit func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		_ = f.Close() // the emit error is the one worth reporting
		return err
	}
	return f.Close()
}
