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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/fsx"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/par"
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
	if s.res.Best == nil {
		if err := s.evaluateStarts(); err != nil {
			return nil, err
		}
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
		// Mutation is sequential (single deterministic rand stream); each
		// descendant is evaluated as soon as it is built, so the cost
		// evaluations overlap the rest of the clone-and-mutate phase. The
		// evaluate trace span covers both — descendant construction and
		// the cost evaluations are one causal phase.
		evalTsp := s.tsp.StartChild("evolution.evaluate")
		descendants, evalErr := s.evaluate(gen, len(s.pop)*(s.prm.Lambda+s.prm.Chi), s.breed)
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
		for _, d := range descendants {
			if !slices.Contains(s.pop, d) {
				d.p.Release()
			}
		}
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
		"pruned", s.obs.pruned.Value(),
		"best_cost", s.res.BestCost,
		"interrupted", s.res.Interrupted)
	return s.res, nil
}

// breed clones and mutates each parent's λ mutation and χ Monte-Carlo
// descendants in order on the run's one random stream, and adds every
// descendant that a move changed. It stops once add reports false.
func (s *state) breed(add func(*individual) bool) {
	for _, parent := range s.pop {
		for l := 0; l < s.prm.Lambda; l++ {
			s.obs.mutAttempts.Inc()
			child := parent.p.Clone() // recombination = duplication (§4.1)
			moved := mutate(child, parent.m, s.rng, &s.mv)
			if !moved {
				continue
			}
			s.obs.mutApplied.Inc()
			if !add(&individual{
				p: child, m: adaptStep(parent.m, s.prm.Epsilon, s.rng),
				origin: originMutation,
			}) {
				return
			}
		}
		for x := 0; x < s.prm.Chi; x++ {
			s.obs.mcAttempts.Inc()
			child := parent.p.Clone()
			moved := monteCarlo(child, s.rng, &s.mv)
			if !moved {
				continue
			}
			s.obs.mcApplied.Inc()
			if !add(&individual{
				p: child, m: adaptStep(parent.m, s.prm.Epsilon, s.rng),
				origin: originMonteCarlo,
			}) {
				return
			}
		}
		parent.age++
	}
}

// evaluateStarts costs a fresh run's start population and takes its
// cheapest individual as the first best-so-far. A resumed run skips it:
// its population carries the checkpointed costs.
func (s *state) evaluateStarts() error {
	_, err := s.evaluate(0, len(s.pop), func(add func(*individual) bool) {
		for _, ind := range s.pop {
			if !add(ind) {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	s.res.Evaluations += len(s.pop)
	s.obs.evaluations.Add(uint64(len(s.pop)))
	best := cheapest(s.pop)
	s.res.Best = best.p.Clone()
	s.res.BestCost = best.cost
	return nil
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

// testEvalHook, when non-nil, runs before every cost evaluation. Tests
// use it to inject a panic into an evaluation and assert it surfaces as
// an error instead of crashing the process.
var testEvalHook func(i int, p *partition.Partition)

// testExactOnly, when set, makes every cost evaluation exact. Tests use
// it to check that pruning changes no result.
var testExactOnly bool

// evaluate costs one batch, generation gen's descendants or the start
// population (gen 0), on every core (par.Stream). build runs on the
// calling goroutine and adds at most n individuals, in order; the run
// stays the only user of the counted random stream, and each individual
// is evaluated as soon as it is added, overlapping the rest of build. Each
// is an independent clone and its evaluation writes only that clone, so
// which goroutine evaluates it, and when, cannot change a bit of the
// result. evaluate returns the added individuals, in order, once each has
// its cost, with the batch's first failure.
//
// Selection keeps the μ cheapest of each generation's pool, so the batch
// tracks the μ cheapest costs known in it: those of the parents that stay
// in the selection pool, and every exact cost evaluated since. A
// descendant whose cost bound (PenalisedCostAbove) exceeds the μ-th of
// them is not swept: its cost is the bound, above the costs of μ pool
// members, so selection never picks it, whatever the tie-break. Which
// descendants are pruned depends on the order the workers finish in;
// nothing but the evolution.pruned counter does.
//
// A panic inside a cost evaluation (however it is provoked — corrupted
// state, a bug in an estimator, an injected fault) is recovered and
// becomes the batch's error, naming the offending individual; when the
// panic value is itself an error (the estimator's numeric guards panic
// with wrapped errors) it is wrapped rather than stringified, so
// errors.Is sees through the recover boundary. A cost that comes back
// NaN/Inf without panicking is likewise an error (ErrNonFiniteCost): a
// poisoned number must never enter selection or a checkpoint. Once a
// batch has failed, the remaining individuals are skipped and add reports
// false, so build stops.
func (s *state) evaluate(gen, n int, build func(add func(*individual) bool)) ([]*individual, error) {
	b := &batch{
		gen: gen, keep: s.prm.Mu, hist: s.obs.evalSeconds, pruned: s.obs.pruned,
		inj: s.chaos, known: make([]float64, 0, s.prm.Mu),
	}
	if gen > 0 { // the start population has no cost known yet
		for _, parent := range s.pop {
			if parent.age+1 < s.prm.Omega { // it stays in the selection pool
				b.know(parent.cost)
			}
		}
	}
	// add writes slot k before it submits k and never writes it again, so
	// a worker reads inds[k] race-free.
	inds := make([]*individual, n)
	added := 0
	par.Stream(n, func(submit func(i int)) {
		build(func(ind *individual) bool {
			if b.failed.Load() {
				return false
			}
			inds[added] = ind
			submit(added)
			added++
			return true
		})
	}, func(_, i int) {
		if b.failed.Load() {
			return
		}
		if err := b.eval(i, inds[i]); err != nil {
			b.fail(err)
		}
	})
	return inds[:added], b.firstErr()
}

// batch is what the workers of one evaluate call share.
type batch struct {
	gen    int             // the batch's generation, 0 for the start population
	keep   int             // μ: how many of the cheapest known costs selection keeps
	hist   *obs.Histogram  // per-individual evaluation latency; nil when unobserved
	pruned *obs.Counter    // evaluations answered by a bound; nil when unobserved
	inj    *chaos.Injector // probes evolution.worker.panic / .delay before each evaluation

	failed atomic.Bool
	mu     sync.Mutex
	err    error     // guarded by mu; the batch's first failure
	known  []float64 // guarded by mu; the batch's cheapest known costs, ascending, at most keep
}

// know records the exact cost of a member of the batch's selection pool.
func (b *batch) know(cost float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, _ := slices.BinarySearch(b.known, cost)
	if i == b.keep {
		return
	}
	if len(b.known) == b.keep {
		b.known = b.known[:b.keep-1]
	}
	b.known = slices.Insert(b.known, i, cost)
}

// limit returns the μ-th cheapest cost known in the batch: a descendant
// whose cost exceeds it cannot be selected. It is +Inf while fewer than μ
// costs are known.
func (b *batch) limit() float64 {
	if testExactOnly {
		return math.Inf(1)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.known) < b.keep {
		return math.Inf(1)
	}
	return b.known[b.keep-1]
}

func (b *batch) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.failed.Store(true)
}

func (b *batch) firstErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// eval computes the cost of ind, the batch's i-th individual, behind the
// panic boundary.
//
//lint:hotpath descendant evaluation — every cost evaluation of a run flows through here
func (b *batch) eval(i int, ind *individual) (err error) {
	//lint:ignore hotalloc one deferred recover guard per evaluation; the panic boundary is the point of the worker
	defer func() {
		if r := recover(); r != nil {
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("evolution: cost evaluation of descendant %d of generation %d panicked: %w",
					i, b.gen, perr)
			} else {
				err = fmt.Errorf("evolution: cost evaluation of descendant %d of generation %d panicked: %v",
					i, b.gen, r)
			}
		}
	}()
	if testEvalHook != nil {
		testEvalHook(i, ind.p)
	}
	b.inj.MustPass(chaos.SiteEvalPanic)
	b.inj.Sleep(chaos.SiteEvalDelay)
	if b.hist != nil {
		defer b.hist.ObserveSince(time.Now())
	}
	c, exact := ind.p.PenalisedCostAbove(b.limit())
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("evolution: descendant %d of generation %d cost is %g: %w",
			i, b.gen, c, partition.ErrNonFiniteCost)
	}
	if exact {
		b.know(c)
	} else {
		b.pruned.Inc()
	}
	ind.cost = c
	return nil
}
