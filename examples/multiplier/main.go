// The multiplier example partitions a 16×16 parallel array multiplier —
// the architecture of the ISCAS85 benchmark C6288, the hardest circuit in
// the paper's Table 1 — and compares the evolution-based partitioning
// against the standard baseline at the same module count, reproducing the
// paper's headline comparison on a single circuit.
//
// Run with:
//
//	go run ./examples/multiplier [-n 16] [-gens 150]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
)

func main() {
	n := flag.Int("n", 16, "multiplier operand width")
	gens := flag.Int("gens", 150, "evolution generation budget")
	flag.Parse()

	c, err := circuits.ArrayMultiplier(*n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c)

	eprm := evolution.DefaultParams()
	eprm.MaxGenerations = *gens
	evo, err := core.SynthesizeContext(context.Background(), c, core.Options{Evolution: &eprm})
	if err != nil {
		log.Fatal(err)
	}
	std, err := core.SynthesizeContext(context.Background(), c, core.Options{
		Estimator: evo.Estimator,
		Method:    core.MethodStandard,
		Modules:   evo.Partition.NumModules(),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== evolution-based partitioning ===")
	fmt.Print(evo.Report())
	fmt.Println("\n=== standard partitioning (same module count) ===")
	fmt.Print(std.Report())

	ea, sa := evo.Costs.SensorArea, std.Costs.SensorArea
	fmt.Printf("\nsensor area overhead of standard over evolution: %.1f%%\n",
		100*(sa-ea)/ea)
	fmt.Printf("delay: evolution +%.2f%% vs standard +%.2f%%\n",
		100*evo.Costs.DelayOverhead, 100*std.Costs.DelayOverhead)
	fmt.Printf("test time: evolution +%.2f%% vs standard +%.2f%%\n",
		100*evo.Costs.TestTime, 100*std.Costs.TestTime)
}
