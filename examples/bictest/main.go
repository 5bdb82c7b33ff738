// The bictest example walks the complete on-chip IDDQ test flow of the
// paper's figure 1 on a mid-size circuit:
//
//  1. partition the circuit and size one BIC sensor per module,
//  2. extract the IDDQ defect universe (bridges, gate-oxide shorts,
//     stuck-on transistors),
//  3. generate a compacted pseudo-random IDDQ test set,
//  4. inject defects one at a time and run the test set through the chip
//     model: the sensor of the module whose ground path carries the
//     defect current must raise FAIL while all other modules PASS.
//
// Run with:
//
//	go run ./examples/bictest [-circuit c432]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"iddqsyn/internal/atpg"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/faults"
)

func main() {
	name := flag.String("circuit", "c432", "built-in circuit name")
	flag.Parse()

	c, err := circuits.ISCAS85Like(*name)
	if err != nil {
		log.Fatal(err)
	}
	eprm := evolution.DefaultParams()
	eprm.MaxGenerations = 80
	res, err := core.SynthesizeContext(context.Background(), c, core.Options{Evolution: &eprm})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report())

	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 200
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(1)))
	fmt.Printf("\ndefect universe: %d faults\n", len(list))

	gen, err := atpg.Generate(c, list, atpg.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IDDQ test set: %d vectors (from %d random), coverage %.2f%%\n",
		len(gen.Vectors), gen.Generated, 100*gen.Coverage())

	// Silicon check: inject the first few detected defects of each class
	// and watch the sensors.
	fmt.Println("\ninjecting defects into the chip model:")
	shown := map[faults.Kind]int{}
	for _, d := range gen.Detections {
		f := list[d.Fault]
		if shown[f.Kind] >= 3 {
			continue
		}
		shown[f.Kind]++
		detected, vec, module, err := res.Chip.RunTest(gen.Vectors, []faults.Fault{f})
		if err != nil {
			log.Fatal(err)
		}
		status := "MISSED"
		if detected {
			status = fmt.Sprintf("FAIL at vector %d, module %d", vec, module)
		}
		fmt.Printf("  %-22s -> %s\n", f.String(), status)
	}

	// And the fault-free chip must pass the whole set.
	detected, _, _, err := res.Chip.RunTest(gen.Vectors, nil)
	if err != nil {
		log.Fatal(err)
	}
	if detected {
		log.Fatal("fault-free chip failed the test set")
	}
	fmt.Println("\nfault-free chip: all vectors PASS on every sensor")
}
