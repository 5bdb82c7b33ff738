package main

import (
	"context"
	"testing"

	"iddqsyn/internal/evolution"
	"iddqsyn/internal/experiments"
)

// benchEvolution keeps the per-iteration cost of the study benchmarks
// bounded, as the root Table 1 benchmarks do.
func benchEvolution() evolution.Params {
	p := experiments.Table1DefaultEvolution()
	p.MaxGenerations = 60
	p.StallGenerations = 20
	return p
}

// Optimizer comparison: evolution vs simulated annealing vs hill climbing
// at equal evaluation budgets from identical fine-grained starts.
func BenchmarkOptimizerComparison(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var rows []optimizerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = optimizerComparison(context.Background(), "c880", 8, prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%-12s cost %.6g (%d evals, K=%d)", r.Algorithm, r.FinalCost, r.Evaluations, r.Modules)
	}
}

// Sensor-technology table: the quantitative version of the paper's
// argument for the bypass-MOS sensor class.
func BenchmarkSensorVariants(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var rows []variantRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sensorVariants(context.Background(), "c432", prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", formatVariants(rows))
}

// Readout scheduling: the area-vs-test-time trade-off behind cost c5.
func BenchmarkScheduleStudy(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var rows []scheduleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = scheduleStudy(context.Background(), "c880", prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", formatSchedules(rows))
}

// Cost-aware technology mapping (the paper's "next step").
func BenchmarkTechmapStudy(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	for i := 0; i < b.N; i++ {
		if _, _, err := techmapStudy(context.Background(), "c432", prm); err != nil {
			b.Fatal(err)
		}
	}
}

// Yield vs threshold: the Monte-Carlo population study behind the d = 10
// discriminability choice. The metric is the escape rate at the paper's
// 1 µA operating point (bounded below by the ATPG excitation coverage).
func BenchmarkYieldThresholdSweep(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var at1uA float64
	for i := 0; i < b.N; i++ {
		points, _, err := yieldStudy(context.Background(), "c432", prm)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Threshold >= 1e-6 {
				at1uA = p.Escape
				break
			}
		}
	}
	b.ReportMetric(100*at1uA, "escape%@1uA")
}

// Scan-chain ordering across the ISCAS89-like set: wiring saved by the
// nearest-neighbour order vs declaration order on the largest circuit.
func BenchmarkScanChainOrdering(b *testing.B) {
	b.ReportAllocs()
	var saved float64
	for i := 0; i < b.N; i++ {
		rows, err := scanStudy()
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		saved = 100 * (1 - float64(last.OrderedLen)/float64(last.DeclaredLen))
	}
	b.ReportMetric(saved, "wireSaved%")
}

// Delta-IDDQ (current-signature) detection vs the paper's fixed 1 µA
// comparator under growing die-to-die leakage spread. The metric is the
// fixed threshold's overkill at σ = 2.0, which signature analysis avoids.
func BenchmarkDeltaIDDQComparison(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var fixedOvk, deltaOvk float64
	for i := 0; i < b.N; i++ {
		rows, err := deltaStudy(context.Background(), "c432", prm, []float64{2.0})
		if err != nil {
			b.Fatal(err)
		}
		fixedOvk = rows[0].FixedOverkill
		deltaOvk = rows[0].DeltaOverkill
	}
	b.ReportMetric(100*fixedOvk, "fixedOverkill%")
	b.ReportMetric(100*deltaOvk, "deltaOverkill%")
}
