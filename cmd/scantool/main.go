// Command scantool performs scan-chain DFT on a sequential .bench
// netlist (ISCAS89 style, with DFF lines): it orders the scan chain with
// the nearest-neighbour heuristic, materialises the scan multiplexers
// into the netlist, reports the wiring saved and the scan test-time
// economics, and emits the scan-inserted design.
//
// Usage:
//
//	scantool [-circuit s1196 | design.bench] [-o out.bench]
//	         [-vectors 100] [-clk 10e-9]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/seq"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scantool:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("circuit", "", "built-in ISCAS89-like circuit (e.g. s1196)")
	out := flag.String("o", "", "write the scan-inserted netlist here (default: stdout summary only)")
	vectors := flag.Int("vectors", 100, "test vectors for the time estimate")
	clk := flag.Float64("clk", 10e-9, "scan clock period, seconds")
	gens := flag.Int("gens", 60, "evolution budget for the core partitioning")
	flag.Parse()

	var s *seq.Sequential
	var err error
	switch {
	case *name != "":
		s, err = seq.ISCAS89Like(*name)
	case flag.NArg() == 1:
		var f *os.File
		f, err = os.Open(flag.Arg(0))
		if err == nil {
			s, err = seq.ReadBench(f, flag.Arg(0))
			_ = f.Close() // read-only; a close error cannot corrupt anything
		}
	default:
		err = fmt.Errorf("need -circuit or a .bench file")
	}
	if err != nil {
		return err
	}
	fmt.Println(s)

	opt, decl := seq.OrderScanChain(s, 6)
	fmt.Printf("scan chain: declaration order wiring %d, nearest-neighbour %d (%.0f%% saved)\n",
		decl.Length, opt.Length, 100*(1-float64(opt.Length)/float64(max(decl.Length, 1))))

	scanned, err := seq.InsertScan(s, opt.Order)
	if err != nil {
		return err
	}
	fmt.Printf("scan-inserted: %d gates (+%d for %d scan muxes)\n",
		scanned.Comb.NumLogicGates(),
		scanned.Comb.NumLogicGates()-s.Comb.NumLogicGates(), s.NumFFs())

	// Partition the scan-inserted core for IDDQ sensors.
	eprm := evolution.DefaultParams()
	eprm.MaxGenerations = *gens
	res, err := core.SynthesizeContext(context.Background(), scanned.Comb, core.Options{Evolution: &eprm})
	if err != nil {
		return err
	}
	fmt.Print(res.Report())

	var maxSettle float64
	for i := range res.Chip.Sensors {
		if s := res.Chip.Sensors[i].Settle; s > maxSettle {
			maxSettle = s
		}
	}
	total, err := seq.ScanTestTime(*vectors, s.NumFFs(), *clk, res.Costs.DBIc, maxSettle)
	if err != nil {
		return err
	}
	fmt.Printf("IDDQ test: %d scan vectors in %.3g s (%.3g s/vector; scan load %.0f%% of it)\n",
		*vectors, total, total/float64(*vectors),
		100*float64(s.NumFFs())**clk/(total/float64(*vectors)))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := seq.WriteBench(f, scanned); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("scan-inserted netlist written to %s\n", *out)
	}
	return nil
}
