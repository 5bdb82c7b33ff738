// The diagnose example shows what the per-module BIC sensors buy beyond
// go/no-go testing: fault location. A defect's IDDQ signature — which
// vectors fail, and in which module's ground path the current shows up —
// is matched against a precomputed fault dictionary, typically narrowing
// the defect to a handful of electrically equivalent candidates. The same
// flow with one off-chip measurement (no module information) resolves far
// fewer classes.
//
// Run with:
//
//	go run ./examples/diagnose [-circuit c432]
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
	"iddqsyn/internal/diagnose"
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
	eprm.MaxGenerations = 60
	res, err := core.SynthesizeContext(context.Background(), c, core.Options{Evolution: &eprm, ModuleSize: 40})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s partitioned into %d sensor modules\n", c.Name, res.Partition.NumModules())

	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 300
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(1)))
	gen, err := atpg.Generate(c, list, atpg.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test set: %d vectors, %.1f%% of %d faults excitable\n",
		len(gen.Vectors), 100*gen.Coverage(), len(list))

	moduleOf := make([]int, c.NumGates())
	for i := range moduleOf {
		moduleOf[i] = res.Chip.ModuleOf(i)
	}
	dict, err := diagnose.Build(c, moduleOf, list, gen.Vectors)
	if err != nil {
		log.Fatal(err)
	}
	r := dict.Resolve()
	fmt.Printf("dictionary: %d distinct syndromes over %d detected faults (largest class %d)\n\n",
		r.DistinctClasses, r.Detected, r.LargestClass)

	// Play defective chip: inject a few faults and diagnose them from
	// their chip-observed syndromes.
	rng := rand.New(rand.NewSource(7))
	for shown := 0; shown < 5; {
		fi := rng.Intn(len(list))
		if len(dict.FaultSyndrome(fi)) == 0 {
			continue
		}
		shown++
		var observed diagnose.Syndrome
		for vi, v := range gen.Vectors {
			readings, err := res.Chip.ApplyVector(v, []faults.Fault{list[fi]})
			if err != nil {
				log.Fatal(err)
			}
			for _, rd := range readings {
				if !rd.Pass {
					observed = append(observed, diagnose.Observation{Vector: vi, Module: rd.Module})
				}
			}
		}
		exact := dict.ExactMatches(observed)
		hit := false
		for _, m := range exact {
			if m == fi {
				hit = true
				break
			}
		}
		fmt.Printf("injected %-22s -> %d failing measurements -> %d exact candidates (defect included: %v)\n",
			list[fi].String(), len(observed), len(exact), hit)
	}
}
