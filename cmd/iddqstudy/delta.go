package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"iddqsyn/internal/atpg"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/deltaiddq"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/faults"
	"iddqsyn/internal/yield"
)

// deltaRow compares the fixed-threshold decision (the paper's detection
// circuitry) against current-signature analysis at one die-to-die leakage
// spread.
type deltaRow struct {
	SigmaDie float64

	FixedEscape   float64 // fixed threshold at 1 µA
	FixedOverkill float64
	DeltaEscape   float64 // signature analysis
	DeltaOverkill float64
}

// deltaStudy simulates die populations at increasing process spread and
// scores both detection methods on identical dies. The fixed threshold is
// the paper's 1 µA; the signature detector is deltaiddq.DefaultDetector.
//
// Expected shape: at the paper's era-typical spread (σ ≈ 0.3) both
// methods are clean; as the spread grows, the good-die leakage tail
// crosses the fixed threshold (overkill explodes) while the signature
// detector — which keys on the defect's step, not the absolute level —
// stays near the ATPG escape floor.
func deltaStudy(ctx context.Context, name string, eprm evolution.Params, sigmas []float64) ([]deltaRow, error) {
	if len(sigmas) == 0 {
		sigmas = []float64{0.3, 0.8, 1.5}
	}
	c, err := circuits.ISCAS85Like(name)
	if err != nil {
		return nil, err
	}
	res, err := core.SynthesizeContext(ctx, c, core.Options{Evolution: &eprm})
	if err != nil {
		return nil, err
	}
	fcfg := faults.DefaultConfig()
	fcfg.MaxBridges = 300
	list := faults.Universe(c, fcfg, rand.New(rand.NewSource(eprm.Seed)))
	gen, err := atpg.Generate(c, list, atpg.DefaultOptions())
	if err != nil {
		return nil, err
	}
	mx, err := yield.BuildMatrix(res.Chip, gen.Vectors, list)
	if err != nil {
		return nil, err
	}

	const (
		goodDies = 400
		badDies  = 400
	)
	threshold := res.Estimator.P.IDDQth
	det := deltaiddq.DefaultDetector()
	if err := det.Validate(); err != nil {
		return nil, err
	}

	var rows []deltaRow
	for _, sigma := range sigmas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(eprm.Seed + int64(1000*sigma)))
		row := deltaRow{SigmaDie: sigma}
		lognormal := func(s float64) float64 {
			if s <= 0 {
				return 1
			}
			return math.Exp(rng.NormFloat64() * s)
		}
		// signatures fills sigs[m][v] for one die; defectFi < 0 means a
		// fault-free die.
		sigs := make([]deltaiddq.Signature, mx.Modules)
		for m := range sigs {
			sigs[m] = make(deltaiddq.Signature, len(mx.Base))
		}
		buildDie := func(defectFi int, defect float64) (maxMeasure float64) {
			die := lognormal(sigma)
			for m := 0; m < mx.Modules; m++ {
				mod := die * lognormal(0.1)
				for v := range mx.Base {
					sigs[m][v] = mx.Base[v][m] * mod
				}
			}
			if defectFi >= 0 {
				for _, h := range mx.Excited[defectFi] {
					sigs[h.Module][h.Vector] += defect
				}
			}
			for m := range sigs {
				for _, x := range sigs[m] {
					if x > maxMeasure {
						maxMeasure = x
					}
				}
			}
			return maxMeasure
		}

		for d := 0; d < goodDies; d++ {
			maxMeasure := buildDie(-1, 0)
			if maxMeasure >= threshold {
				row.FixedOverkill++
			}
			if det.Detect(sigs) {
				row.DeltaOverkill++
			}
		}
		for d := 0; d < badDies; d++ {
			fi := rng.Intn(len(list))
			defect := list[fi].Current * lognormal(0.5)
			maxMeasure := buildDie(fi, defect)
			if maxMeasure < threshold {
				row.FixedEscape++
			}
			if !det.Detect(sigs) {
				row.DeltaEscape++
			}
		}
		row.FixedEscape /= badDies
		row.FixedOverkill /= goodDies
		row.DeltaEscape /= badDies
		row.DeltaOverkill /= goodDies
		rows = append(rows, row)
	}
	return rows, nil
}

// formatDelta renders the comparison.
func formatDelta(rows []deltaRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s | %12s %12s | %12s %12s\n",
		"σ(die)", "fixed esc", "fixed ovk", "delta esc", "delta ovk")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8.2f | %11.2f%% %11.2f%% | %11.2f%% %11.2f%%\n",
			r.SigmaDie, 100*r.FixedEscape, 100*r.FixedOverkill,
			100*r.DeltaEscape, 100*r.DeltaOverkill)
	}
	return sb.String()
}
