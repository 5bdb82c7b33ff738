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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"iddqsyn/internal/experiments"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/obscli"
	"iddqsyn/internal/runctl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the table and the
// per-row summaries to stdout and diagnostics to stderr, and returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	fs.SetOutput(stderr)
	circuitsFlag := fs.String("circuits", "", "comma-separated circuit subset (default: all of Table 1)")
	gens := fs.Int("gens", 0, "override evolution generation budget")
	seed := fs.Int64("seed", 1, "evolution seed")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = none)")
	csvPath := fs.String("csv", "", "also write the rows as CSV to this file")
	mdPath := fs.String("md", "", "also write the rows as a Markdown table to this file")
	var oc obscli.Config
	oc.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return runctl.ExitOK
		}
		return runctl.ExitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "table1:", err)
		return runctl.ExitFailure
	}

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

	orun, err := oc.Start(stderr)
	if err != nil {
		return fail(err)
	}

	ctx, cancelTimeout := runctl.WithTimeout(context.Background(), *timeout, orun.Obs)
	ctx, stop := runctl.WithSignals(ctx, stderr, orun.Obs)
	ctx = obs.NewContext(ctx, orun.Obs)

	rows, err := experiments.Table1(ctx, cfg)
	// Released before the snapshot is written, so an expired budget is in it.
	stop()
	cancelTimeout()
	ferr := orun.Finish("table1")
	if err != nil {
		return fail(err)
	}
	if ferr != nil {
		return fail(ferr)
	}
	fmt.Fprint(stdout, experiments.FormatTable1(rows))
	fmt.Fprintln(stdout)
	for _, r := range rows {
		fmt.Fprintf(stdout, "%s: evolution ran %d of %d generations (%d evaluations); weighted cost %.6g vs standard %.6g\n",
			r.Circuit, r.Generations, prm.MaxGenerations, r.Evaluations, r.CostEvolution, r.CostStandard)
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(f *os.File) error { return experiments.Table1CSV(f, rows) }); err != nil {
			return fail(err)
		}
	}
	if *mdPath != "" {
		if err := writeFile(*mdPath, func(f *os.File) error { return experiments.Table1Markdown(f, rows) }); err != nil {
			return fail(err)
		}
	}
	return runctl.ExitOK
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
