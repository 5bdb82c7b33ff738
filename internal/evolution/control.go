// Run control for the evolution strategy: cooperative cancellation at
// generation boundaries, periodic crash-safe checkpointing, and panic
// containment in the parallel cost-evaluation workers. The optimizer
// state lives in a single `state` value so an interrupted run, a resumed
// run and an uninterrupted run all execute the identical generation loop
// — the basis of the bit-identical resume guarantee.

package evolution

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/fsx"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
)

// DefaultCheckpointEvery is the checkpoint cadence, in generations, used
// when a Control names a checkpoint file but leaves CheckpointEvery zero.
const DefaultCheckpointEvery = 10

// Control configures run control for one optimization run. A nil
// *Control means no trace and no checkpointing. Observation and fault
// injection are not configured here: the run takes its Obs and injector
// from its context (obs.NewContext, chaos.NewContext). An observed run's
// metrics snapshot rides inside every checkpoint and is restored on
// resume, so cumulative counters continue monotonically.
type Control struct {
	// CheckpointPath, if non-empty, makes the optimizer persist its full
	// state to this file every CheckpointEvery generations and on
	// interruption. Writes are atomic (temp file + rename), so a crash
	// never leaves a truncated checkpoint behind.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in generations
	// (0 = DefaultCheckpointEvery).
	CheckpointEvery int

	// Trace, if non-nil, receives the best individual after every
	// completed generation.
	Trace Trace

	// FS, if non-nil, routes every checkpoint write through this
	// filesystem instead of the real one. Chaos tests pass a chaos.FS
	// here to provoke torn writes, full disks and failed renames.
	FS fsx.FS

	// Retry, if non-nil, overrides the bounded retry-with-backoff policy
	// for checkpoint writes (nil = fsx defaults: 3 attempts, jittered
	// exponential backoff from 2ms). The run's OnRetry telemetry is
	// layered on top of any callback set here.
	Retry *fsx.RetryPolicy
}

func (c *Control) every() int {
	if c == nil || c.CheckpointPath == "" {
		return 0
	}
	if c.CheckpointEvery <= 0 {
		return DefaultCheckpointEvery
	}
	return c.CheckpointEvery
}

// countingSource wraps the standard math/rand source and counts how many
// times it was stepped. Every Int63 and Uint64 call advances the
// underlying generator by exactly one step, so replaying `draws` steps on
// a fresh source of the same seed reproduces the generator state exactly
// — which is how a resumed run re-enters the random sequence at the
// position the checkpoint captured.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// skip advances the source by n steps (used on resume).
func (s *countingSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Int63()
	}
	s.draws = n
}

// state is the complete optimizer state between two generations: the
// checkpoint serializes exactly this (plus the RNG draw count), and the
// generation loop below is the only code that mutates it.
type state struct {
	prm     Params
	src     *countingSource
	rng     *rand.Rand
	pop     []*individual
	res     *Result
	stall   int
	nextGen int // first generation the loop will run (1 for fresh runs)
	obs     *runObs

	// tsp is the causal-trace span the run's context carried in (the
	// serving layer's core.optimize phase); per-generation evaluate /
	// select / checkpoint child spans hang off it. Nil when untraced —
	// every use then costs one pointer comparison and zero allocations,
	// which the TestDescendantAllocs bound holds the hot path to.
	tsp *obs.TraceSpan

	// mv is the mutation operators' scratch memory. It carries no run
	// state (checkpoints ignore it) — it only keeps the sequential
	// mutation phase allocation-free.
	mv moveScratch

	// Failure-surface plumbing, resolved once by attachControl. None of
	// it ever touches the seeded random stream: an inert injector and the
	// real filesystem leave the run bit-identical to an unplumbed one.
	chaos *chaos.Injector
	fs    fsx.FS
	retry *fsx.RetryPolicy
}

// attachControl resolves the run's failure-surface plumbing: the fault
// injector and trace span the context carries, the checkpoint filesystem,
// and the retry policy with the run's telemetry layered onto its OnRetry
// callback.
func (s *state) attachControl(ctx context.Context, ctl *Control) {
	s.chaos = chaos.FromContext(ctx)
	s.tsp = obs.SpanFromContext(ctx)
	s.fs = fsx.OS{}
	if ctl != nil && ctl.FS != nil {
		s.fs = ctl.FS
	}
	var pol fsx.RetryPolicy
	if ctl != nil && ctl.Retry != nil {
		pol = *ctl.Retry
	}
	inner := pol.OnRetry
	pol.OnRetry = func(attempt int, err error) {
		s.obs.checkpointRetries.Inc()
		s.obs.log.Warn("checkpoint write retrying",
			"attempt", attempt, "err", err.Error())
		if inner != nil {
			inner(attempt, err)
		}
	}
	s.retry = &pol
}

// run executes generations nextGen..MaxGenerations with cancellation
// checks at every generation boundary. An interrupted run returns the
// best-so-far Result with Interrupted set and a nil error (the only
// errors are real failures: a panicking cost evaluation or an unwritable
// checkpoint file).
func (s *state) run(ctx context.Context, ctl *Control) (*Result, error) {
	every := ctl.every()
	var trace Trace
	if ctl != nil {
		trace = ctl.Trace
	}
	for gen := s.nextGen; gen <= s.prm.MaxGenerations; gen++ {
		if s.stall >= s.prm.StallGenerations {
			break // resumed from a checkpoint of an already-stalled run
		}
		if err := ctx.Err(); err != nil {
			return s.interrupt(err, ctl)
		}
		s.res.Generations = gen
		var genStart time.Time
		if s.obs.on {
			genStart = time.Now()
		}
		// Mutation is sequential (single deterministic rand stream);
		// the cost evaluations below may run on a worker pool. The
		// evaluate trace span covers both — descendant construction and
		// the parallel cost evaluations are one causal phase.
		evalTsp := s.tsp.StartChild("evolution.evaluate")
		descendants := make([]*individual, 0, len(s.pop)*(s.prm.Lambda+s.prm.Chi))
		for _, parent := range s.pop {
			for l := 0; l < s.prm.Lambda; l++ {
				s.obs.mutAttempts.Inc()
				child := parent.p.Clone() // recombination = duplication (§4.1)
				moved := mutate(child, parent.m, s.rng, &s.mv)
				if !moved {
					continue
				}
				s.obs.mutApplied.Inc()
				descendants = append(descendants, &individual{
					p: child, m: adaptStep(parent.m, s.prm.Epsilon, s.rng),
					origin: originMutation,
				})
			}
			for x := 0; x < s.prm.Chi; x++ {
				s.obs.mcAttempts.Inc()
				child := parent.p.Clone()
				moved := monteCarlo(child, s.rng, &s.mv)
				if !moved {
					continue
				}
				s.obs.mcApplied.Inc()
				descendants = append(descendants, &individual{
					p: child, m: adaptStep(parent.m, s.prm.Epsilon, s.rng),
					origin: originMonteCarlo,
				})
			}
			parent.age++
		}
		evalErr := evaluate(descendants, s.prm.Workers, costOf, s.obs.evalSeconds, s.chaos)
		evalTsp.End()
		if evalErr != nil {
			return nil, evalErr
		}
		s.res.Evaluations += len(descendants)
		s.obs.evaluations.Add(uint64(len(descendants)))
		s.obs.countInfeasible(descendants)

		// Selection: parents older than ω are deleted; the μ cheapest of
		// the remaining parents and all descendants survive.
		selTsp := s.tsp.StartChild("evolution.select")
		pool := descendants
		for _, ind := range s.pop {
			if ind.age < s.prm.Omega {
				pool = append(pool, ind)
			}
		}
		if len(pool) == 0 {
			selTsp.End()
			break // nothing mutable remains (e.g. single-module partitions)
		}
		s.pop = selectBest(pool, s.prm.Mu)
		selTsp.End()

		if b := cheapest(s.pop); b.cost < s.res.BestCost {
			s.res.BestCost = b.cost
			s.res.Best = b.p.Clone()
			s.stall = 0
			s.obs.improvements.Inc()
			s.obs.log.Info("new best",
				"gen", gen, "cost", b.cost, "modules", b.p.NumModules())
		} else {
			s.stall++
		}
		s.res.History = append(s.res.History, s.res.BestCost)
		if s.obs.on {
			s.obs.genSeconds.ObserveSince(genStart)
		}
		s.obs.afterGeneration(s, len(descendants))
		if trace != nil {
			trace(gen, s.res.Best, s.res.BestCost)
		}
		if s.stall >= s.prm.StallGenerations {
			break
		}
		if every > 0 && gen%every == 0 && gen < s.prm.MaxGenerations {
			ckptTsp := s.tsp.StartChild("evolution.checkpoint")
			err := s.writeCheckpoint(ctl.CheckpointPath)
			ckptTsp.End()
			if err != nil {
				// The run state is intact; surface the result alongside
				// the error so hours of work are not discarded because a
				// disk filled up.
				return s.res, err
			}
		}
	}
	s.obs.log.Info("evolution run end",
		"generations", s.res.Generations,
		"evaluations", s.res.Evaluations,
		"best_cost", s.res.BestCost,
		"interrupted", s.res.Interrupted)
	return s.res, nil
}

// writeCheckpoint persists the current state (with the metrics snapshot
// embedded) and records the write in the telemetry.
func (s *state) writeCheckpoint(path string) error {
	var t0 time.Time
	if s.obs.on {
		t0 = time.Now()
		// Count the write before snapshotting, so the snapshot a resumed
		// run restores already includes the write that produced it.
		s.obs.checkpointWrites.Inc()
	}
	if err := s.checkpoint().write(s.fs, path, s.retry); err != nil {
		return err
	}
	if s.obs.on {
		s.obs.ckptSeconds.ObserveSince(t0)
		s.obs.log.Debug("checkpoint written",
			"path", path, "gen", s.res.Generations)
	}
	return nil
}

// interrupt finalises a cancelled run: best-so-far result, Interrupted
// flag, a wrapped context error, and a final checkpoint if configured.
func (s *state) interrupt(ctxErr error, ctl *Control) (*Result, error) {
	s.res.Interrupted = true
	s.res.Err = fmt.Errorf("evolution: interrupted after generation %d: %w",
		s.res.Generations, ctxErr)
	s.obs.log.Warn("evolution run interrupted",
		"gen", s.res.Generations, "best_cost", s.res.BestCost)
	if ctl != nil && ctl.CheckpointPath != "" {
		if err := s.writeCheckpoint(ctl.CheckpointPath); err != nil {
			return s.res, err
		}
	}
	return s.res, nil
}

// testEvalHook, when non-nil, runs before every descendant cost
// evaluation. Tests use it to inject a panic into a worker and assert it
// surfaces as an error instead of crashing the process.
var testEvalHook func(i int, p *partition.Partition)

// evaluate fills in the cost of every descendant, using up to `workers`
// goroutines. Each descendant is an independent clone and cost is pure,
// so the parallel evaluation is race-free and bit-identical to the
// sequential one. A panic inside a cost evaluation (however it is
// provoked — corrupted state, a bug in an estimator, an injected fault)
// is recovered and returned as an error naming the offending descendant;
// when the panic value is itself an error (the estimator's numeric guards
// panic with wrapped errors) it is wrapped rather than stringified, so
// errors.Is sees through the recover boundary. A cost that comes back
// NaN/Inf without panicking is likewise an error (ErrNonFiniteCost): a
// poisoned number must never enter selection or a checkpoint. The
// remaining workers drain and exit cleanly. A non-nil hist receives the
// per-descendant evaluation latency in seconds; a non-nil inj probes the
// chaos sites evolution.worker.panic / evolution.worker.delay before each
// evaluation.
//
//lint:hotpath descendant evaluation loop — every cost evaluation of a run flows through here
func evaluate(descendants []*individual, workers int, cost func(*partition.Partition) float64, hist *obs.Histogram, inj *chaos.Injector) error {
	//lint:ignore hotalloc one closure per evaluate call, amortized over the λ descendants it evaluates
	eval := func(i int) (err error) {
		//lint:ignore hotalloc one deferred recover guard per descendant; the panic boundary is the point of the worker
		defer func() {
			if r := recover(); r != nil {
				if perr, ok := r.(error); ok {
					err = fmt.Errorf("evolution: cost evaluation of descendant %d/%d panicked: %w",
						i, len(descendants), perr)
				} else {
					err = fmt.Errorf("evolution: cost evaluation of descendant %d/%d panicked: %v",
						i, len(descendants), r)
				}
			}
		}()
		if testEvalHook != nil {
			testEvalHook(i, descendants[i].p)
		}
		inj.MustPass(chaos.SiteEvalPanic)
		inj.Sleep(chaos.SiteEvalDelay)
		if hist != nil {
			defer hist.ObserveSince(time.Now())
		}
		c := cost(descendants[i].p)
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("evolution: descendant %d/%d cost is %g: %w",
				i, len(descendants), c, partition.ErrNonFiniteCost)
		}
		descendants[i].cost = c
		return nil
	}

	if workers <= 1 || len(descendants) < 2 {
		for i := range descendants {
			if err := eval(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > len(descendants) {
		workers = len(descendants)
	}
	var (
		wg       sync.WaitGroup
		next     int64 = -1
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:ignore hotalloc one worker closure per evaluate call, amortized over the λ evaluations it runs
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(descendants) || failed.Load() {
					return
				}
				if err := eval(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
