// The sequential example runs the complete DFT flow on an ISCAS89-class
// full-scan design: scan-chain ordering (wiring minimised with the same
// separation metric as the partitioner), scan-mux insertion into the
// netlist (verified function-preserving in functional mode by the seq
// package tests), IDDQ partitioning of the scan-inserted combinational
// core, and the scan test-time economics — the setting in which the
// paper's virtual-rail constraint protects the stored state.
//
// Run with:
//
//	go run ./examples/sequential [-circuit s641]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/seq"
)

func main() {
	name := flag.String("circuit", "s641", "built-in ISCAS89-like circuit")
	flag.Parse()

	s, err := seq.ISCAS89Like(*name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s)

	// 1. Order the scan chain.
	opt, decl := seq.OrderScanChain(s, 6)
	fmt.Printf("scan wiring: %d (declared) -> %d (ordered)\n", decl.Length, opt.Length)

	// 2. Materialise the scan muxes.
	scanned, err := seq.InsertScan(s, opt.Order)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after scan insertion: %d gates\n", scanned.Comb.NumLogicGates())

	// 3. Partition the core for BIC sensors.
	eprm := evolution.DefaultParams()
	eprm.MaxGenerations = 80
	res, err := core.SynthesizeContext(context.Background(), scanned.Comb, core.Options{Evolution: &eprm})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report())

	// 4. Test economics with scan loading.
	var maxSettle float64
	for i := range res.Chip.Sensors {
		if v := res.Chip.Sensors[i].Settle; v > maxSettle {
			maxSettle = v
		}
	}
	const vectors = 200
	total, err := seq.ScanTestTime(vectors, s.NumFFs(), 10e-9, res.Costs.DBIc, maxSettle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d IDDQ vectors through the %d-bit scan chain: %.3g s total\n",
		vectors, s.NumFFs(), total)
}
