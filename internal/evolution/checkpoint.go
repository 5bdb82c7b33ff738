// Crash-safe checkpointing of the evolution state. A checkpoint captures
// everything the generation loop depends on — the control parameters, the
// population (gate groups, ages, self-adapted step widths, costs), the
// best individual, the stall counter, the bookkeeping totals, and the
// exact position of the seed-derived random stream — so a resumed run
// replays the remaining generations bit-identically to a run that was
// never interrupted.

package evolution

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"iddqsyn/internal/estimate"
	"iddqsyn/internal/fsx"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partcheck"
	"iddqsyn/internal/partition"
)

// ErrCorruptCheckpoint is wrapped by every LoadCheckpoint failure caused
// by the file's content — zero length, truncated or otherwise unparsable
// JSON, or a structure that fails validation. Callers distinguish "the
// checkpoint is damaged" (fall back to a fresh run, keep the file for
// forensics) from "the file cannot be read at all" (an I/O error, worth
// retrying) with errors.Is.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// CheckpointFormat and CheckpointVersion identify the checkpoint file
// format. The version is bumped whenever the serialized state or the
// generation loop's use of the random stream changes incompatibly; a
// mismatch is a load error, never a silent misresume.
const (
	CheckpointFormat  = "iddqsyn-evolution-checkpoint"
	CheckpointVersion = 1
)

// CheckpointIndividual is one serialized population member.
type CheckpointIndividual struct {
	Groups    [][]int `json:"groups"`
	Cost      float64 `json:"cost"`
	Age       int     `json:"age"`
	StepWidth int     `json:"step_width"` // self-adapted m
}

// Checkpoint is the serialized optimizer state at a generation boundary.
type Checkpoint struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	// Circuit identity, so a checkpoint cannot be resumed against a
	// different netlist.
	Circuit string `json:"circuit"`
	Gates   int    `json:"gates"`

	Params   Params `json:"params"`
	RNGDraws uint64 `json:"rng_draws"` // steps consumed from the seeded source

	Generation  int       `json:"generation"` // last completed generation
	Evaluations int       `json:"evaluations"`
	Stall       int       `json:"stall"`
	BestCost    float64   `json:"best_cost"`
	Best        [][]int   `json:"best"` // gate groups of the best individual
	History     []float64 `json:"history"`

	Population []CheckpointIndividual `json:"population"`

	// Metrics is the run's cumulative telemetry at the checkpoint (nil on
	// unobserved runs and on checkpoints from older versions). Resuming
	// restores it into the new run's registry, so counters continue
	// monotonically — bit-identical resume also means consistent
	// telemetry. The field is additive; version 1 files without it load
	// unchanged.
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
}

// checkpoint captures the current state. It is called only at generation
// boundaries, where `state` is fully consistent.
func (s *state) checkpoint() *Checkpoint {
	c := s.pop[0].p.E.A.Circuit
	ck := &Checkpoint{
		Format:      CheckpointFormat,
		Version:     CheckpointVersion,
		Circuit:     c.Name,
		Gates:       c.NumGates(),
		Params:      s.prm,
		RNGDraws:    s.src.draws,
		Generation:  s.res.Generations,
		Evaluations: s.res.Evaluations,
		Stall:       s.stall,
		BestCost:    s.res.BestCost,
		Best:        s.res.Best.Groups(),
		History:     append([]float64(nil), s.res.History...),
	}
	for _, ind := range s.pop {
		ck.Population = append(ck.Population, CheckpointIndividual{
			Groups:    ind.p.Groups(),
			Cost:      ind.cost,
			Age:       ind.age,
			StepWidth: ind.m,
		})
	}
	if s.obs.on {
		ck.Metrics = s.obs.o.Registry().Snapshot()
	}
	return ck
}

// write persists the checkpoint through the crash-safe publication
// protocol of fsx (temp file, fsync, rename, directory fsync), retrying
// transient failures per pol (nil = fsx defaults). A crash or injected
// fault mid-write leaves the previous checkpoint (or none) in place,
// never a truncated one.
func (ck *Checkpoint) write(fs fsx.FS, path string, pol *fsx.RetryPolicy) error {
	data, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		return fmt.Errorf("evolution: marshal checkpoint: %w", err)
	}
	if fs == nil {
		fs = fsx.OS{}
	}
	if err := fsx.WriteAtomicRetry(fs, path, data, pol); err != nil {
		return fmt.Errorf("evolution: write checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file. Corrupted files,
// foreign formats and version mismatches yield descriptive errors.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("evolution: load checkpoint: %w", err)
	}
	if len(data) == 0 {
		// An empty file parses to nothing useful; name the corruption
		// directly (the atomic-write protocol makes this state impossible
		// to produce by crashing, so it points at an external cause).
		return nil, fmt.Errorf("evolution: checkpoint %s is corrupted: %w: zero-length file", path, ErrCorruptCheckpoint)
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("evolution: checkpoint %s is corrupted: %w: %w", path, ErrCorruptCheckpoint, err)
	}
	if err := ck.validate(); err != nil {
		return nil, fmt.Errorf("evolution: checkpoint %s: %w: %w", path, ErrCorruptCheckpoint, err)
	}
	return ck, nil
}

// validate checks the structural integrity of a checkpoint.
func (ck *Checkpoint) validate() error {
	switch {
	case ck.Format != CheckpointFormat:
		return fmt.Errorf("not an evolution checkpoint (format %q, want %q)",
			ck.Format, CheckpointFormat)
	case ck.Version != CheckpointVersion:
		return fmt.Errorf("checkpoint version %d not supported (want %d)",
			ck.Version, CheckpointVersion)
	case len(ck.Population) == 0:
		return fmt.Errorf("checkpoint has an empty population")
	case len(ck.Best) == 0:
		return fmt.Errorf("checkpoint has no best individual")
	case ck.Generation < 0 || ck.Stall < 0:
		return fmt.Errorf("checkpoint has negative progress counters")
	}
	if err := ck.Params.validate(); err != nil {
		return fmt.Errorf("checkpoint parameters invalid: %w", err)
	}
	return nil
}

// Resume continues an optimization run from a checkpoint. The
// estimator, weights and constraints must describe the same circuit and
// objective the checkpointed run used (the circuit identity is verified;
// the objective cannot be, so resuming under different weights is a
// caller bug). The control parameters are taken from the checkpoint, and
// the random stream is fast-forwarded to the recorded position, so the
// resumed run's remaining generations — and its final Result — are
// bit-identical to those of an uninterrupted run with the same seed. ctx
// and ctl play the same roles as in Optimize.
func Resume(ctx context.Context, ck *Checkpoint, e *estimate.Estimator, w partition.Weights, cons partition.Constraints, ctl *Control) (*Result, error) {
	if err := ck.validate(); err != nil {
		return nil, err
	}
	c := e.A.Circuit
	// Identity first: auditing groupings against the wrong netlist would
	// produce a misleading structural diagnosis for what is simply a
	// checkpoint/circuit mismatch.
	if ck.Circuit != c.Name || ck.Gates != c.NumGates() {
		return nil, fmt.Errorf("evolution: checkpoint is for circuit %q (%d gates), not %q (%d gates)",
			ck.Circuit, ck.Gates, c.Name, c.NumGates())
	}
	// Statically audit every grouping in the checkpoint before trusting
	// it: a hand-edited or corrupted file is rejected here with the
	// violated constraint named, instead of surfacing later as a bad
	// optimization result.
	if r := partcheck.VerifyStructure(c, ck.Best); !r.OK() {
		return nil, fmt.Errorf("evolution: checkpoint best individual: %w", r.Err())
	}
	src := newCountingSource(ck.Params.Seed)
	src.skip(ck.RNGDraws)
	s := &state{
		prm:     ck.Params,
		src:     src,
		rng:     rand.New(src),
		stall:   ck.Stall,
		nextGen: ck.Generation + 1,
		obs:     newRunObs(obs.FromContext(ctx)),
		res: &Result{
			BestCost:    ck.BestCost,
			Generations: ck.Generation,
			Evaluations: ck.Evaluations,
			History:     append([]float64(nil), ck.History...),
		},
	}
	s.attachControl(ctx, ctl)
	if s.obs.on && ck.Metrics != nil {
		// Seed the registry with the checkpointed totals: cumulative
		// counters and histograms continue monotonically across the
		// resume instead of restarting from zero.
		s.obs.o.Registry().Restore(ck.Metrics)
	}
	if s.obs.on {
		s.obs.log.Info("resuming from checkpoint",
			"circuit", ck.Circuit, "gen", ck.Generation,
			"evaluations", ck.Evaluations, "best_cost", ck.BestCost,
			"telemetry_restored", ck.Metrics != nil)
	}
	best, err := partition.New(e, ck.Best, w, cons)
	if err != nil {
		return nil, fmt.Errorf("evolution: checkpoint best individual: %w", err)
	}
	s.res.Best = best
	// Deliberately not cancellable: resuming under an already-cancelled
	// context must still reconstruct the population so the run can report
	// its checkpointed best-so-far individual.
	//lint:ignore ctxloop cancellation is handled at generation boundaries; aborting here would break the best-so-far contract
	for i, ind := range ck.Population {
		if r := partcheck.VerifyStructure(c, ind.Groups); !r.OK() {
			return nil, fmt.Errorf("evolution: checkpoint individual %d: %w", i, r.Err())
		}
		p, err := partition.New(e, ind.Groups, w, cons)
		if err != nil {
			return nil, fmt.Errorf("evolution: checkpoint individual %d: %w", i, err)
		}
		s.pop = append(s.pop, &individual{p: p, cost: ind.Cost, age: ind.Age, m: ind.StepWidth})
	}
	return s.run(ctx, ctl)
}
