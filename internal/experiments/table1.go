// Package experiments regenerates the paper's artifacts and nothing else:
// Table 1 (standard vs evolution partitioning over the ISCAS85 benchmark
// set, rendered as text, CSV or Markdown), figure 1 (the BIC sensor's
// PASS/FAIL behaviour), figure 2 (the impact of group shape on sensor
// area in a 2-D cell array), the C17 evolution trace of figures 3-5, and
// the studies behind the paper's text: §5 convergence, the §4 ablations,
// the §3.1 pessimism bound and the §2 weight sweep. The extension studies
// beyond the paper live in cmd/iddqstudy. DESIGN.md maps each experiment
// to the modules it exercises; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
)

// Table1Circuits lists the benchmark circuits of the paper's Table 1 with
// their published module counts.
var Table1Circuits = []struct {
	Name    string
	PaperK  int     // #modules in Table 1
	PaperOv float64 // sensor area overhead of standard over evolution, %
}{
	{"c1908", 2, 30.6},
	{"c2670", 3, 14.5},
	{"c3540", 4, 22.9},
	{"c5315", 6, 25.3},
	{"c6288", 5, 25.9},
	{"c7552", 6, 19.7},
}

// Table1Row is one circuit's comparison between the two methods.
type Table1Row struct {
	Circuit string
	Gates   int
	Modules int // module count of the evolution result (standard uses the same)

	AreaEvolution float64
	AreaStandard  float64
	AreaOverhead  float64 // (standard - evolution) / evolution, %

	DelayEvolution float64 // delay overhead, %
	DelayStandard  float64
	TestEvolution  float64 // test-time overhead, %
	TestStandard   float64

	CostEvolution float64
	CostStandard  float64

	Generations int
	Evaluations int
}

// Table1Config tunes the experiment's runtime.
type Table1Config struct {
	Circuits  []string          // subset of Table1Circuits names; nil = all
	Evolution *evolution.Params // nil = tuned defaults (see Table1DefaultEvolution)
}

// Table1DefaultEvolution returns the evolution parameters used for the
// Table 1 runs: the §4.2 scheme with a generation budget that converges on
// every benchmark in minutes of CPU (the paper reports "a few hours on a
// Sun Sparc workstation" for the same process).
func Table1DefaultEvolution() evolution.Params {
	p := evolution.DefaultParams()
	p.MaxGenerations = 250
	p.StallGenerations = 50
	return p
}

// Table1 regenerates the paper's Table 1: for every circuit, the
// evolution-based partitioning, then the standard partitioning at the same
// module count, and the comparison of sensor area, delay and test time.
// A row whose evolution run ctx interrupts is an error that wraps
// context.Cause(ctx), and no rows are returned.
func Table1(ctx context.Context, cfg Table1Config) ([]Table1Row, error) {
	names := cfg.Circuits
	if names == nil {
		for _, c := range Table1Circuits {
			names = append(names, c.Name)
		}
	}
	eprm := Table1DefaultEvolution()
	if cfg.Evolution != nil {
		eprm = *cfg.Evolution
	}
	var rows []Table1Row
	for _, name := range names {
		row, err := table1Circuit(ctx, name, eprm)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table1Circuit runs both methods on one circuit and builds its row.
func table1Circuit(ctx context.Context, name string, eprm evolution.Params) (Table1Row, error) {
	c, err := circuits.ISCAS85Like(name)
	if err != nil {
		return Table1Row{}, err
	}
	evo, err := core.SynthesizeContext(ctx, c, core.Options{Evolution: &eprm})
	if err != nil {
		return Table1Row{}, fmt.Errorf("experiments: %s evolution: %w", name, err)
	}
	// An interrupted run's best-so-far partition is no Table 1 figure, nor
	// is the module count it would hand the standard run.
	if evo.Evolution != nil && evo.Evolution.Interrupted {
		return Table1Row{}, fmt.Errorf("experiments: %s evolution interrupted after %d generations: %w",
			name, evo.Evolution.Generations, context.Cause(ctx))
	}
	std, err := core.SynthesizeContext(ctx, c, core.Options{
		Estimator: evo.Estimator, // both methods under one set of §3 estimators
		Method:    core.MethodStandard,
		Modules:   evo.Partition.NumModules(),
	})
	if err != nil {
		return Table1Row{}, fmt.Errorf("experiments: %s standard: %w", name, err)
	}
	if err := verifyFinal(name+" evolution", evo); err != nil {
		return Table1Row{}, err
	}
	if err := verifyFinal(name+" standard", std); err != nil {
		return Table1Row{}, err
	}
	ecv, scv := evo.Costs, std.Costs
	return Table1Row{
		Circuit:        name,
		Gates:          c.NumLogicGates(),
		Modules:        evo.Partition.NumModules(),
		AreaEvolution:  ecv.SensorArea,
		AreaStandard:   scv.SensorArea,
		AreaOverhead:   100 * (scv.SensorArea - ecv.SensorArea) / ecv.SensorArea,
		DelayEvolution: 100 * ecv.DelayOverhead,
		DelayStandard:  100 * scv.DelayOverhead,
		TestEvolution:  100 * ecv.TestTime,
		TestStandard:   100 * scv.TestTime,
		CostEvolution:  evo.Partition.Cost(),
		CostStandard:   std.Partition.Cost(),
		Generations:    evo.Evolution.Generations,
		Evaluations:    evo.Evolution.Evaluations,
	}, nil
}

// FormatTable1 renders rows in the layout of the paper's Table 1.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %6s %8s | %12s %12s %9s | %9s %9s | %9s %9s\n",
		"circuit", "gates", "#modules",
		"area(std)", "area(evo)", "overhead",
		"delay(std)", "delay(evo)", "test(std)", "test(evo)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %6d %8d | %12.3e %12.3e %8.1f%% | %8.2f%% %8.2f%% | %8.2f%% %8.2f%%\n",
			r.Circuit, r.Gates, r.Modules,
			r.AreaStandard, r.AreaEvolution, r.AreaOverhead,
			r.DelayStandard, r.DelayEvolution,
			r.TestStandard, r.TestEvolution)
	}
	return sb.String()
}

// Table1CSV writes Table 1 rows as CSV with a header line.
func Table1CSV(w io.Writer, rows []Table1Row) error {
	cw := csv.NewWriter(w)
	header := []string{
		"circuit", "gates", "modules",
		"area_standard", "area_evolution", "area_overhead_pct",
		"delay_standard_pct", "delay_evolution_pct",
		"test_standard_pct", "test_evolution_pct",
		"cost_standard", "cost_evolution",
		"generations", "evaluations",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	fmtF := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	for _, r := range rows {
		rec := []string{
			r.Circuit,
			strconv.Itoa(r.Gates),
			strconv.Itoa(r.Modules),
			fmtF(r.AreaStandard), fmtF(r.AreaEvolution), fmtF(r.AreaOverhead),
			fmtF(r.DelayStandard), fmtF(r.DelayEvolution),
			fmtF(r.TestStandard), fmtF(r.TestEvolution),
			fmtF(r.CostStandard), fmtF(r.CostEvolution),
			strconv.Itoa(r.Generations), strconv.Itoa(r.Evaluations),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table1Markdown renders Table 1 rows as a GitHub-flavoured Markdown
// table mirroring the paper's layout.
func Table1Markdown(w io.Writer, rows []Table1Row) error {
	var sb strings.Builder
	sb.WriteString("| circuit | gates | modules | area (std) | area (evo) | overhead | delay std/evo | test std/evo |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "| %s | %d | %d | %.3e | %.3e | %.1f%% | %.2f%% / %.2f%% | %.2f%% / %.2f%% |\n",
			r.Circuit, r.Gates, r.Modules,
			r.AreaStandard, r.AreaEvolution, r.AreaOverhead,
			r.DelayStandard, r.DelayEvolution,
			r.TestStandard, r.TestEvolution)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
