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
	"runtime"
	"slices"
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
	evals := newEvalPool(s.prm.Mu*(s.prm.Lambda+s.prm.Chi), s.prm.Mu, s.obs, s.chaos)
	defer evals.close()
	if s.res.Best == nil {
		if err := s.evaluateStarts(evals); err != nil {
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
		// descendant goes to the pool as soon as it is built, so the
		// cost evaluations overlap the rest of the clone-and-mutate
		// phase. The evaluate trace span covers both — descendant
		// construction and the cost evaluations are one causal phase.
		evalTsp := s.tsp.StartChild("evolution.evaluate")
		descendants := make([]*individual, 0, len(s.pop)*(s.prm.Lambda+s.prm.Chi))
		evals.start(gen)
		for _, parent := range s.pop {
			if parent.age+1 < s.prm.Omega { // it stays in the selection pool
				evals.know(parent.cost)
			}
		}
	build:
		for _, parent := range s.pop {
			for l := 0; l < s.prm.Lambda; l++ {
				s.obs.mutAttempts.Inc()
				child := parent.p.Clone() // recombination = duplication (§4.1)
				moved := mutate(child, parent.m, s.rng, &s.mv)
				if !moved {
					continue
				}
				s.obs.mutApplied.Inc()
				d := &individual{
					p: child, m: adaptStep(parent.m, s.prm.Epsilon, s.rng),
					origin: originMutation,
				}
				if !evals.submit(len(descendants), d) {
					break build
				}
				descendants = append(descendants, d)
			}
			for x := 0; x < s.prm.Chi; x++ {
				s.obs.mcAttempts.Inc()
				child := parent.p.Clone()
				moved := monteCarlo(child, s.rng, &s.mv)
				if !moved {
					continue
				}
				s.obs.mcApplied.Inc()
				d := &individual{
					p: child, m: adaptStep(parent.m, s.prm.Epsilon, s.rng),
					origin: originMonteCarlo,
				}
				if !evals.submit(len(descendants), d) {
					break build
				}
				descendants = append(descendants, d)
			}
			parent.age++
		}
		evalErr := evals.wait()
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

// evaluateStarts costs a fresh run's start population on the pool and
// takes its cheapest individual as the first best-so-far. A resumed run
// skips it: its population carries the checkpointed costs.
func (s *state) evaluateStarts(pool *evalPool) error {
	pool.start(0)
	for i, ind := range s.pop {
		if !pool.submit(i, ind) {
			break
		}
	}
	if err := pool.wait(); err != nil {
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

// evalPool evaluates individual costs on runtime.GOMAXPROCS(0)
// goroutines, one pool per run: GOMAXPROCS−1 helpers and the generation
// loop itself. The loop stays the only user of the counted random
// stream: it clones and mutates every descendant in order and submits
// each one as soon as it is built, so the helpers' cost evaluations
// overlap the next clone-and-mutate; once a batch is built, the loop
// evaluates what the helpers have not taken yet. On one core there are
// no helpers and the loop evaluates everything, as a sequential loop
// would. Each descendant is an independent clone and its evaluation writes
// only that clone, so which goroutine evaluates it, and when, cannot
// change a bit of the result.
//
// Selection keeps the μ cheapest of each generation's pool, so the pool
// tracks the μ cheapest costs known in the batch: those of the parents
// that stay in the selection pool, and every exact cost evaluated since.
// A descendant whose cost bound (PenalisedCostAbove) exceeds the μ-th of
// them is not swept: its cost is the bound, above the costs of μ pool
// members, so selection never picks it, whatever the tie-break. Which
// descendants are pruned depends on the order the helpers finish in;
// nothing but the evolution.pruned counter does.
//
// One batch (a generation, or the start population) is in flight at a
// time: submit adds to it, wait ends it. A panic inside a cost evaluation
// (however it is provoked — corrupted state, a bug in an estimator, an
// injected fault) is recovered and becomes the batch's error, naming the
// offending individual; when the panic value is itself an error (the
// estimator's numeric guards panic with wrapped errors) it is wrapped
// rather than stringified, so errors.Is sees through the recover
// boundary. A cost that comes back NaN/Inf without panicking is likewise
// an error (ErrNonFiniteCost): a poisoned number must never enter
// selection or a checkpoint. Once a batch has failed, the remaining
// individuals are skipped and the loop stops submitting.
type evalPool struct {
	jobs    chan evalJob
	helpers sync.WaitGroup
	hist    *obs.Histogram  // per-individual evaluation latency; nil when unobserved
	pruned  *obs.Counter    // evaluations answered by a bound; nil when unobserved
	inj     *chaos.Injector // probes evolution.worker.panic / .delay before each evaluation
	keep    int             // μ: how many of the cheapest known costs selection keeps

	gen     int // the batch's generation, 0 for the start population; set before its first submit
	pending sync.WaitGroup
	failed  atomic.Bool
	mu      sync.Mutex
	err     error     // guarded by mu; the batch's first failure
	known   []float64 // guarded by mu; the batch's cheapest known costs, ascending, at most keep
}

// evalJob is one submitted individual and its index in the batch.
type evalJob struct {
	i   int
	ind *individual
}

// newEvalPool starts the run's helpers. buffer is the job queue's
// capacity: one generation's descendants, so the loop can build a whole
// generation ahead of the helpers; keep is μ.
func newEvalPool(buffer, keep int, ro *runObs, inj *chaos.Injector) *evalPool {
	p := &evalPool{
		jobs: make(chan evalJob, buffer), hist: ro.evalSeconds, pruned: ro.pruned,
		inj: inj, keep: keep, known: make([]float64, 0, keep),
	}
	n := runtime.GOMAXPROCS(0) - 1
	p.helpers.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer p.helpers.Done()
			for j := range p.jobs {
				p.run(j)
			}
		}()
	}
	return p
}

// close stops the helpers once they have drained the queue. Every return
// path of a run calls it, so no helper outlives its run.
func (p *evalPool) close() {
	close(p.jobs)
	p.helpers.Wait()
}

// start opens the batch of generation gen (0 = the start population),
// with no cost known.
func (p *evalPool) start(gen int) {
	p.gen = gen
	p.failed.Store(false)
	p.mu.Lock()
	p.err = nil
	p.known = p.known[:0]
	p.mu.Unlock()
}

// know records the exact cost of a member of the batch's selection pool.
func (p *evalPool) know(cost float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, _ := slices.BinarySearch(p.known, cost)
	if i == p.keep {
		return
	}
	if len(p.known) == p.keep {
		p.known = p.known[:p.keep-1]
	}
	p.known = slices.Insert(p.known, i, cost)
}

// limit returns the μ-th cheapest cost known in the batch: a descendant
// whose cost exceeds it cannot be selected. It is +Inf while fewer than μ
// costs are known.
func (p *evalPool) limit() float64 {
	if testExactOnly {
		return math.Inf(1)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.known) < p.keep {
		return math.Inf(1)
	}
	return p.known[p.keep-1]
}

// submit queues the cost evaluation of ind, the i-th individual of the
// current batch; when the queue is full the loop evaluates it at once. It
// reports false, queueing nothing, once the batch has failed: the loop
// then stops building descendants.
func (p *evalPool) submit(i int, ind *individual) bool {
	if p.failed.Load() {
		return false
	}
	p.pending.Add(1)
	j := evalJob{i: i, ind: ind}
	select {
	case p.jobs <- j:
	default:
		p.run(j)
	}
	return true
}

// wait evaluates the queued individuals the helpers have not taken, blocks
// until every submitted individual of the batch has a cost (or was
// skipped after a failure) and returns the batch's first error.
func (p *evalPool) wait() error {
	for queued := true; queued; {
		select {
		case j := <-p.jobs:
			p.run(j)
		default:
			queued = false
		}
	}
	p.pending.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// run evaluates one submitted individual unless its batch has failed.
func (p *evalPool) run(j evalJob) {
	if !p.failed.Load() {
		if err := p.eval(j); err != nil {
			p.fail(err)
		}
	}
	p.pending.Done()
}

func (p *evalPool) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.failed.Store(true)
}

// eval computes one individual's cost behind the panic boundary.
//
//lint:hotpath descendant evaluation — every cost evaluation of a run flows through here
func (p *evalPool) eval(j evalJob) (err error) {
	//lint:ignore hotalloc one deferred recover guard per evaluation; the panic boundary is the point of the worker
	defer func() {
		if r := recover(); r != nil {
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("evolution: cost evaluation of descendant %d of generation %d panicked: %w",
					j.i, p.gen, perr)
			} else {
				err = fmt.Errorf("evolution: cost evaluation of descendant %d of generation %d panicked: %v",
					j.i, p.gen, r)
			}
		}
	}()
	if testEvalHook != nil {
		testEvalHook(j.i, j.ind.p)
	}
	p.inj.MustPass(chaos.SiteEvalPanic)
	p.inj.Sleep(chaos.SiteEvalDelay)
	if p.hist != nil {
		defer p.hist.ObserveSince(time.Now())
	}
	c, exact := j.ind.p.PenalisedCostAbove(p.limit())
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("evolution: descendant %d of generation %d cost is %g: %w",
			j.i, p.gen, c, partition.ErrNonFiniteCost)
	}
	if exact {
		p.know(c)
	} else {
		p.pruned.Inc()
	}
	j.ind.cost = c
	return nil
}
