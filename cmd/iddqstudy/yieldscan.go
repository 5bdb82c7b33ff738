package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"iddqsyn/internal/atpg"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/faults"
	"iddqsyn/internal/seq"
	"iddqsyn/internal/yield"
)

// yieldStudy runs the Monte-Carlo threshold sweep on a synthesized chip:
// escape and overkill rates over a geometric IDDQ,th ladder, plus the
// smallest zero-overkill threshold of the simulated fault-free
// population. It quantifies the §2 choice d = 10 and IDDQ,th = 1 µA.
func yieldStudy(ctx context.Context, name string, eprm evolution.Params) ([]yield.Point, float64, error) {
	c, err := circuits.ISCAS85Like(name)
	if err != nil {
		return nil, 0, err
	}
	res, err := core.SynthesizeContext(ctx, c, core.Options{Evolution: &eprm})
	if err != nil {
		return nil, 0, err
	}
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 300
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(eprm.Seed)))
	gen, err := atpg.Generate(c, list, atpg.DefaultOptions())
	if err != nil {
		return nil, 0, err
	}
	st, err := yield.Build(res.Chip, gen.Vectors, list, yield.DefaultConfig())
	if err != nil {
		return nil, 0, err
	}
	points, err := st.Sweep(1e-9, 1e-2, 22)
	if err != nil {
		return nil, 0, err
	}
	return points, st.ZeroOverkillThreshold(), nil
}

// formatYield renders the threshold sweep.
func formatYield(points []yield.Point) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12s %10s %10s\n", "IDDQ,th (A)", "escape", "overkill")
	for _, p := range points {
		fmt.Fprintf(&sb, "%12.3g %9.2f%% %9.2f%%\n", p.Threshold, 100*p.Escape, 100*p.Overkill)
	}
	return sb.String()
}

// scanRow is one sequential benchmark's scan-chain and test-time summary.
type scanRow struct {
	Circuit     string
	FFs         int
	Gates       int
	DeclaredLen int     // scan wiring, declaration order
	OrderedLen  int     // scan wiring, nearest-neighbour order
	TestTime    float64 // 100 scan vectors, s
}

// scanStudy evaluates scan-chain ordering and scan test time over the
// ISCAS89-like benchmark set: the full-scan extension of the §3.3 wiring
// and §3.4 test-time costs.
func scanStudy() ([]scanRow, error) {
	var rows []scanRow
	for _, name := range seq.Names89() {
		s, err := seq.ISCAS89Like(name)
		if err != nil {
			return nil, err
		}
		opt, decl := seq.OrderScanChain(s, 6)
		// Scan clock 10 ns, settled-logic window 50 ns, sensing 20 ns —
		// representative of the paper's technology.
		total, err := seq.ScanTestTime(100, s.NumFFs(), 10e-9, 50e-9, 20e-9)
		if err != nil {
			return nil, err
		}
		rows = append(rows, scanRow{
			Circuit:     name,
			FFs:         s.NumFFs(),
			Gates:       s.Comb.NumLogicGates(),
			DeclaredLen: decl.Length,
			OrderedLen:  opt.Length,
			TestTime:    total,
		})
	}
	return rows, nil
}

// formatScan renders the scan study.
func formatScan(rows []scanRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %6s %7s %14s %13s %12s\n",
		"circuit", "FFs", "gates", "wire(declared)", "wire(ordered)", "t(100 vec)")
	for _, r := range rows {
		saved := 0.0
		if r.DeclaredLen > 0 {
			saved = 100 * (1 - float64(r.OrderedLen)/float64(r.DeclaredLen))
		}
		fmt.Fprintf(&sb, "%-8s %6d %7d %14d %9d -%2.0f%% %11.3gs\n",
			r.Circuit, r.FFs, r.Gates, r.DeclaredLen, r.OrderedLen, saved, r.TestTime)
	}
	return sb.String()
}
