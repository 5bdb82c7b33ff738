// Command iddqsim runs the chip-level IDDQ test flow on a partitioned
// circuit: it extracts the defect universe (bridges, gate-oxide shorts,
// stuck-on transistors), generates a compacted pseudo-random IDDQ test
// set, sizes the BIC sensors, and reports the coverage the sensors achieve
// — including, per defect class, how many injected defects the sized
// sensors actually flag.
//
// Usage:
//
//	iddqsim [-circuit c1908 | file.bench] [-method evolution|standard]
//	        [-coverage 0.995] [-maxvec 4096] [-bridges 500] [-seed 1]
//	        [-savevec test.vec] [-diagnose]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"iddqsyn/internal/atpg"
	"iddqsyn/internal/bench"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/diagnose"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/faults"
	"iddqsyn/internal/vectors"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iddqsim:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("circuit", "", "built-in circuit name (e.g. c432); otherwise read a .bench file argument")
	method := flag.String("method", "evolution", "partitioning method")
	coverage := flag.Float64("coverage", 0.995, "ATPG coverage goal")
	maxVec := flag.Int("maxvec", 4096, "random-vector budget")
	bridges := flag.Int("bridges", 500, "bridge-fault sample cap (0 = all)")
	gens := flag.Int("gens", 120, "evolution generation budget")
	seed := flag.Int64("seed", 1, "seed")
	saveVec := flag.String("savevec", "", "write the generated test set to this vector file")
	doDiagnose := flag.Bool("diagnose", false, "report the diagnostic resolution of the test set")
	topUp := flag.Bool("topup", true, "run deterministic (PODEM) top-up for random-resistant faults")
	flag.Parse()

	var c *circuit.Circuit
	var err error
	switch {
	case *name != "":
		c, err = circuits.ISCAS85Like(*name)
	case flag.NArg() == 1:
		var f *os.File
		f, err = os.Open(flag.Arg(0))
		if err == nil {
			c, err = bench.Read(f, flag.Arg(0))
			_ = f.Close() // read-only; a close error cannot corrupt anything
		}
	default:
		err = fmt.Errorf("need -circuit or a .bench file")
	}
	if err != nil {
		return err
	}

	opt := core.Options{}
	if *method == "standard" {
		opt.Method = core.MethodStandard
	}
	eprm := evolution.DefaultParams()
	eprm.Seed = *seed
	eprm.MaxGenerations = *gens
	opt.Evolution = &eprm
	res, err := core.SynthesizeContext(context.Background(), c, opt)
	if err != nil {
		return err
	}
	fmt.Print(res.Report())

	cfg := faults.DefaultConfig()
	cfg.MaxBridges = *bridges
	rng := rand.New(rand.NewSource(*seed))
	list := faults.Universe(c, cfg, rng)
	fmt.Printf("\nfault universe: %d defects\n", len(list))

	gen, err := atpg.Generate(c, list, atpg.Options{
		TargetCoverage: *coverage, MaxVectors: *maxVec, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ATPG: %d vectors kept of %d simulated, excitation coverage %.2f%%\n",
		len(gen.Vectors), gen.Generated, 100*gen.Coverage())
	if *topUp && gen.Detected() < len(list) {
		tu, err := atpg.TopUp(c, list, gen, 2000)
		if err != nil {
			return err
		}
		fmt.Printf("deterministic top-up: +%d vectors, +%d faults detected, %d proven unexcitable, %d aborted -> coverage %.2f%%\n",
			tu.Added, tu.NewDetected, tu.ProvenUnsat, tu.Aborted, 100*gen.Coverage())
	}

	// On-chip verification: every detected fault must fail a sized sensor.
	byKind := map[faults.Kind][2]int{} // kind -> {verified, total}
	for _, d := range gen.Detections {
		f := list[d.Fault]
		hit, _, _, err := res.Chip.RunTest(gen.Vectors, []faults.Fault{f})
		if err != nil {
			return err
		}
		v := byKind[f.Kind]
		if hit {
			v[0]++
		}
		v[1]++
		byKind[f.Kind] = v
	}
	fmt.Println("on-chip detection through sized BIC sensors:")
	for _, k := range []faults.Kind{faults.Bridge, faults.GateOxideShort, faults.StuckOn} {
		v := byKind[k]
		if v[1] == 0 {
			continue
		}
		fmt.Printf("  %-10s %5d/%d flagged (%.1f%%)\n", k, v[0], v[1], 100*float64(v[0])/float64(v[1]))
	}

	if *saveVec != "" {
		f, err := os.Create(*saveVec)
		if err != nil {
			return err
		}
		if err := vectors.Write(f, c, gen.Vectors); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\ntest set written to %s\n", *saveVec)
	}

	if *doDiagnose {
		moduleOf := make([]int, c.NumGates())
		for i := range moduleOf {
			moduleOf[i] = res.Chip.ModuleOf(i)
		}
		dict, err := diagnose.Build(c, moduleOf, list, gen.Vectors)
		if err != nil {
			return err
		}
		r := dict.Resolve()
		fmt.Printf("\ndiagnostic resolution with per-module sensors:\n")
		fmt.Printf("  %d/%d faults detected, %d distinct syndromes, largest equivalence class %d (avg %.2f)\n",
			r.Detected, r.Faults, r.DistinctClasses, r.LargestClass,
			float64(r.Detected)/float64(max(1, r.DistinctClasses)))
	}
	return nil
}
