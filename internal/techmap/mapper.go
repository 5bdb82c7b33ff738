package techmap

import (
	"fmt"
	"math/rand"
	"slices"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/logicsim"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// Style names a candidate mapping produced by the transformations.
type Style int

// The candidate mapping styles.
const (
	StyleAsIs   Style = iota // the input netlist unchanged
	StyleNarrow              // Decompose to 2-input cells
	StyleWide                // Recompose fanout-free chains into wide cells
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleAsIs:
		return "as-is"
	case StyleNarrow:
		return "narrow"
	case StyleWide:
		return "wide"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// Candidate is one evaluated mapping.
type Candidate struct {
	Style   Style
	Circuit *circuit.Circuit
	Gates   int
	Cost    float64 // PART-IDDQ weighted cost of a trial partition
}

// MapResult reports a cost-aware mapping run.
type MapResult struct {
	Chosen     Candidate
	Candidates []Candidate
}

// MapForIDDQ evaluates the as-is, narrow and wide mappings of the circuit
// under the PART-IDDQ cost function — each candidate is trial-partitioned
// with the §5 standard clustering at the §4.2 estimated module size — and
// returns the style with the lowest weighted cost. This is the paper's
// "controlling the logic synthesis procedure such that the presented cost
// function is considered at the early beginning": the mapper's objective
// is the testability cost, not gate count.
func MapForIDDQ(c *circuit.Circuit, lib *celllib.Library, p estimate.Params,
	w partition.Weights, cons partition.Constraints) (*MapResult, error) {

	narrow, err := Decompose(c, 2)
	if err != nil {
		return nil, fmt.Errorf("techmap: decompose: %w", err)
	}
	wide, err := Recompose(c, lib)
	if err != nil {
		return nil, fmt.Errorf("techmap: recompose: %w", err)
	}
	res := &MapResult{}
	for _, cand := range []struct {
		style Style
		c     *circuit.Circuit
	}{
		{StyleAsIs, c}, {StyleNarrow, narrow}, {StyleWide, wide},
	} {
		cost, err := trialCost(cand.c, lib, p, w, cons)
		if err != nil {
			return nil, fmt.Errorf("techmap: %v candidate: %w", cand.style, err)
		}
		res.Candidates = append(res.Candidates, Candidate{
			Style: cand.style, Circuit: cand.c,
			Gates: cand.c.NumLogicGates(), Cost: cost,
		})
	}
	res.Chosen = res.Candidates[0]
	for _, cand := range res.Candidates[1:] {
		if cand.Cost < res.Chosen.Cost {
			res.Chosen = cand
		}
	}
	return res, nil
}

// trialCost maps the candidate onto the library and evaluates the
// weighted cost of a standard trial partition (fast and deterministic —
// a full evolution run per candidate would triple the synthesis time for
// little ranking benefit; the final partition is evolved on the winner).
func trialCost(c *circuit.Circuit, lib *celllib.Library, p estimate.Params,
	w partition.Weights, cons partition.Constraints) (float64, error) {
	a, err := celllib.Annotate(c, lib)
	if err != nil {
		return 0, err
	}
	e := estimate.New(a, p)
	size := standard.EstimateModuleSize(e, w, cons)
	groups := standard.StandardPartition(e, size)
	pt, err := partition.New(e, groups, w, cons)
	if err != nil {
		return 0, err
	}
	return pt.Cost(), nil
}

// VerifyEquivalent checks two circuits with identical primary input and
// output names for functional equality on `vectors` random vectors (plus
// the all-zero and all-one vectors). It returns an error naming the first
// mismatching output. The transformations in this package are
// function-preserving; this is the runtime guard.
func VerifyEquivalent(a, b *circuit.Circuit, vectors int, seed int64) error {
	return VerifyEquivalentRand(a, b, vectors, rand.New(rand.NewSource(seed)))
}

// VerifyEquivalentRand is VerifyEquivalent with an injected random
// stream, for callers that thread one counted source through a whole
// reproducible run.
func VerifyEquivalentRand(a, b *circuit.Circuit, vectors int, rng *rand.Rand) error {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return fmt.Errorf("techmap: interface mismatch: %d/%d inputs, %d/%d outputs",
			len(a.Inputs), len(b.Inputs), len(a.Outputs), len(b.Outputs))
	}
	// Match inputs and outputs by name, not position.
	bIn := make([]int, len(a.Inputs))
	for i, id := range a.Inputs {
		g, ok := b.GateByName(a.Gates[id].Name)
		if !ok || g.Type != circuit.Input {
			return fmt.Errorf("techmap: input %q missing in %s", a.Gates[id].Name, b.Name)
		}
		bIn[i] = g.ID
	}
	type outPair struct {
		name string
		a, b int
	}
	outs := make([]outPair, len(a.Outputs))
	bOutByName := make(map[string]int, len(b.Outputs))
	for _, o := range b.Outputs {
		bOutByName[b.Gates[o].Name] = o
	}
	for i, o := range a.Outputs {
		name := a.Gates[o].Name
		bo, ok := bOutByName[name]
		if !ok {
			return fmt.Errorf("techmap: output %q missing in %s", name, b.Name)
		}
		outs[i] = outPair{name, o, bo}
	}

	simA := logicsim.New(a)
	simB := logicsim.New(b)
	vecA := make([]bool, len(a.Inputs))
	vecB := make([]bool, len(b.Inputs))
	for trial := 0; trial < vectors+2; trial++ {
		for i := range vecA {
			switch trial {
			case 0:
				vecA[i] = false
			case 1:
				vecA[i] = true
			default:
				vecA[i] = rng.Intn(2) == 1
			}
		}
		for i := range vecA {
			vecB[i] = vecA[i]
		}
		if err := simA.ApplyBits(vecA); err != nil {
			return err
		}
		// b's inputs may be ordered differently; apply by mapping.
		valsB := make([]logicsim.Value, len(b.Inputs))
		for i := range b.Inputs {
			valsB[i] = logicsim.X
		}
		for i, id := range bIn {
			valsB[slices.Index(b.Inputs, id)] = logicsim.FromBool(vecA[i])
		}
		if err := simB.Apply(valsB); err != nil {
			return err
		}
		for _, op := range outs {
			if simA.Value(op.a) != simB.Value(op.b) {
				return fmt.Errorf("techmap: output %q differs on trial %d: %v vs %v",
					op.name, trial, simA.Value(op.a), simB.Value(op.b))
			}
		}
	}
	return nil
}
