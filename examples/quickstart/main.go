// Quickstart: synthesize an IDDQ-testable version of the ISCAS85 C17
// circuit — the paper's running example — with three lines of library use:
// build (or load) a circuit, call core.SynthesizeContext, read the report.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
)

func main() {
	// C17: six NAND gates, the smallest ISCAS85 benchmark. Any circuit
	// read with bench.Read or built with circuit.NewBuilder works the
	// same way.
	c := circuits.C17()
	fmt.Println(c)

	// Default options reproduce the paper's setup: the built-in 1 µm CMOS
	// cell library, cost weights C = 9c1 + 1e5·c2 + c3 + c4 + 10c5,
	// discriminability d ≥ 10, evolution-based partitioning.
	res, err := core.SynthesizeContext(context.Background(), c, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report())

	// The partition's gates, module by module.
	for mi, gates := range res.Partition.Groups() {
		fmt.Printf("module %d:", mi)
		for _, g := range gates {
			fmt.Printf(" %s", c.Gates[g].Name)
		}
		fmt.Println()
	}
}
