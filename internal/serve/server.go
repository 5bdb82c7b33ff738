// Package serve is the partition-synthesis service: clients POST a
// netlist plus constraints and get a job ID; a bounded worker pool runs
// each job through the full core synthesis flow (evolution optimizer,
// retry/degrade loop, static partition audit) under a per-job timeout,
// streaming progress over SSE and serving results from a content-hash
// cache.
//
// Durability is the point. Every lifecycle transition goes through the
// append-only job journal (journal.go) and every job checkpoints its
// optimizer state crash-safely, so a SIGKILL'd server restarts, replays
// the journal, re-enqueues the unfinished jobs and resumes each one from
// its checkpoint — finishing, by the bit-identical resume guarantee of
// the evolution package, with exactly the result the uninterrupted run
// would have produced.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/fsx"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
)

// Service telemetry (in the server's metrics registry, alongside the
// per-job optimizer metrics that accumulate there).
const (
	MetricSubmitted = "serve.jobs.submitted"
	MetricCacheHits = "serve.jobs.cachehits"
	MetricOverload  = "serve.jobs.overload" // submissions refused with 429
	MetricFinished  = "serve.jobs.finished"
	MetricFailed    = "serve.jobs.failed"
	MetricDegraded  = "serve.jobs.degraded"
	MetricResumed   = "serve.jobs.resumed" // attempts that resumed a checkpoint
	MetricRetries   = "serve.jobs.retries" // serve-level attempt retries

	// MetricQueueWait is the histogram of seconds each admitted job spent
	// between enqueue and worker claim — the queue's contribution to
	// end-to-end latency, invisible before this metric existed.
	MetricQueueWait = "serve.queue.wait_seconds"
	// MetricQueueDepth gauges the admission-queue backlog.
	MetricQueueDepth = "serve.queue.depth"
	// MetricSSEDropped counts events evicted from slow SSE subscribers'
	// buffers across all job streams.
	MetricSSEDropped = "obs.sse.dropped"

	// Per-tenant admission telemetry: serve.tenant.<label>.admitted /
	// .rejected, with the tenant name sanitized by tenantLabel to keep
	// metric-name cardinality bounded.
	tenantMetricPrefix = "serve.tenant."
)

// tenantLabel maps a client-supplied tenant name onto a bounded metric
// label: alphanumerics, '-' and '_' pass through (max 32 bytes),
// anything else collapses to "other" so a hostile tenant header cannot
// mint unbounded metric names.
func tenantLabel(tenant string) string {
	if tenant == "" || len(tenant) > 32 {
		return "other"
	}
	for i := 0; i < len(tenant); i++ {
		c := tenant[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return "other"
		}
	}
	return tenant
}

// Defaults for the zero Config.
const (
	DefaultWorkers         = 2
	DefaultJobTimeout      = 5 * time.Minute
	DefaultCheckpointEvery = 5
	DefaultJobAttempts     = 2
)

// errShutdown is the cancellation cause of a server shutdown; runJob
// uses it to tell "the server is stopping — leave the job resumable"
// from "this job's budget expired — finish it best-so-far".
var errShutdown = errors.New("serve: shutting down")

// Config assembles a Server.
type Config struct {
	// Dir is the data directory: journal, specs, results, checkpoints.
	Dir string
	// Workers is the job worker pool size (0 = DefaultWorkers).
	Workers int
	// QueueCap bounds the admission queue (0 = DefaultQueueCap).
	QueueCap int
	// JobTimeout is the default per-job wall-clock budget, used when the
	// spec names none (0 = DefaultJobTimeout).
	JobTimeout time.Duration
	// CheckpointEvery is the per-job checkpoint cadence in generations
	// (0 = DefaultCheckpointEvery).
	CheckpointEvery int
	// JobAttempts bounds the serve-level retries of a failed job
	// (0 = DefaultJobAttempts). Each failed attempt backs off with
	// seeded jitter before the next.
	JobAttempts int
	// Seed seeds the retry-backoff jitter (0 = 1). The determtaint lint
	// bans ambient randomness; all service randomness flows from here.
	Seed int64
	// SelfTestAdmission gates readiness on SelfTest: until it passes,
	// /healthz reports 503 and submissions are refused. Armed by the
	// -chaos flag of cmd/iddqserve.
	SelfTestAdmission bool

	// Obs observes the service (nil = unobserved). Job telemetry
	// accumulates in its registry; each job additionally gets its own
	// obs run (shared registry and logger) so live status stays per-job.
	Obs *obs.Obs
	// Chaos, if non-nil, injects deterministic faults into every job's
	// failure surfaces (worker pool, estimator) — robustness testing.
	Chaos *chaos.Injector
	// FS routes journal, result and checkpoint writes (nil = the real
	// filesystem; chaos tests pass a chaos.FS).
	FS fsx.FS
	// Retry overrides the write retry policy (nil = fsx defaults).
	Retry *fsx.RetryPolicy

	// Storage lifecycle (gc.go). Zero values mean: default segment size,
	// unbounded retention, no disk budget, default maintenance cadence.

	// SegmentMaxBytes is the journal's active-segment roll threshold
	// (0 = DefaultSegmentMaxBytes).
	SegmentMaxBytes int64
	// RetainJobs caps the terminal (done/failed) jobs kept on disk;
	// beyond it the oldest are evicted (0 = unbounded).
	RetainJobs int
	// RetainAge evicts terminal jobs older than this (0 = unbounded).
	// Queued and running jobs are never evicted.
	RetainAge time.Duration
	// DiskBudget bounds the data directory's total size in bytes. Above
	// it, maintenance evicts terminal jobs oldest-first, and if the
	// directory still exceeds the budget, new submissions are shed with
	// 503 until it recovers (0 = unbounded).
	DiskBudget int64
	// MaintenanceEvery is the GC/compaction cadence
	// (0 = DefaultMaintenanceEvery).
	MaintenanceEvery time.Duration
}

// job is the in-memory state of one job. The server's map owns the
// identity; the job's own mutex guards the mutable fields.
type job struct {
	id string
	// tenant and spec are written at creation and rewritten only when a
	// failed (terminal, unqueued) job is resubmitted — under mu, like the
	// rest of the mutable state; workers read them through jobSpec(). A
	// finished job holds no spec (its side file stays on disk): only a
	// queued or running job needs one.
	tenant string
	spec   *JobSpec

	mu       sync.Mutex
	phase    JobPhase
	attempts int
	detail   string
	gen      int
	bestCost float64
	// terminalAt is the Unix-nano time the job last reached a terminal
	// phase (journal record time on replay) — what retention age and
	// oldest-first eviction order are measured from.
	terminalAt int64

	// events and done are mu-guarded too: resubmitting a failed job
	// replaces both for the new lifecycle, so reads go through stream()/
	// doneCh() and the job's own methods capture them under the lock.
	events *obs.Broadcaster
	done   chan struct{} // closed on terminal phase (done/failed)

	// Causal-trace state, mu-guarded: the root span covers the job's whole
	// admitted lifetime, qwait the enqueue→claim stretch (started on the
	// submitting goroutine, ended by the claiming worker). All nil when
	// tracing is off or the job was replayed from the journal.
	root     *obs.TraceSpan
	qwait    *obs.TraceSpan
	enqueued time.Time // when the job entered the queue (zero for cache hits)
}

// claimTrace hands the worker the queue-wait span and enqueue time at
// claim; the span is cleared so a later resubmission starts clean.
func (j *job) claimTrace() (*obs.TraceSpan, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	qw := j.qwait
	j.qwait = nil
	return qw, j.enqueued
}

// rootSpan is the job's current trace root (nil when untraced).
func (j *job) rootSpan() *obs.TraceSpan {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.root
}

// jobSpec is the job's spec under the lock: a failed-job resubmission
// rewrites it, and the claiming worker must observe the rewrite.
func (j *job) jobSpec() *JobSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

// attemptCount is the attempts recorded so far, under the lock.
func (j *job) attemptCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// setTrace installs the trace state for one admitted lifecycle.
func (j *job) setTrace(root, qwait *obs.TraceSpan, enqueued time.Time) {
	j.mu.Lock()
	j.root = root
	j.qwait = qwait
	j.enqueued = enqueued
	j.mu.Unlock()
}

// stream is the job's current event broadcaster.
func (j *job) stream() *obs.Broadcaster {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events
}

// doneCh is the channel closed at the job's next terminal phase.
func (j *job) doneCh() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// JobStatus is the JSON view of a job's state.
type JobStatus struct {
	ID         string  `json:"id"`
	Tenant     string  `json:"tenant,omitempty"`
	Phase      string  `json:"phase"`
	Attempts   int     `json:"attempts,omitempty"`
	Detail     string  `json:"detail,omitempty"`
	Generation int     `json:"generation,omitempty"`
	BestCost   float64 `json:"best_cost,omitempty"`
	Result     string  `json:"result,omitempty"` // href, set once done
	Events     string  `json:"events"`           // href of the SSE stream
}

// JobResult is the durable result of a finished job (result-<id>.json).
type JobResult struct {
	ID          string  `json:"id"`
	Circuit     string  `json:"circuit"`
	Method      string  `json:"method"`
	Gates       int     `json:"gates"`
	Modules     int     `json:"modules"`
	Cost        float64 `json:"cost"`
	Feasible    bool    `json:"feasible"`
	Groups      [][]int `json:"groups"`
	Generations int     `json:"generations,omitempty"`
	Evaluations int     `json:"evaluations,omitempty"`
	Degraded    bool    `json:"degraded,omitempty"`
	DegradedErr string  `json:"degraded_err,omitempty"`
	TimedOut    bool    `json:"timed_out,omitempty"`
	Report      string  `json:"report"`
}

// progressEvent is what the per-job SSE stream carries.
type progressEvent struct {
	Job        string  `json:"job"`
	Phase      string  `json:"phase"`
	Generation int     `json:"generation,omitempty"`
	BestCost   float64 `json:"best_cost,omitempty"`
	Detail     string  `json:"detail,omitempty"`
}

// Server is the running service (minus the HTTP listener, which
// cmd/iddqserve owns so tests can drive the handler directly).
type Server struct {
	cfg     Config
	o       *obs.Obs
	journal *Journal
	queue   *fairQueue

	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup

	ready   atomic.Bool
	started atomic.Bool

	// Shedding state (gc.go): when shedding is set, new submissions get
	// 503 and /healthz names shedReason; in-flight jobs keep running.
	shedding   atomic.Bool
	shedReason atomic.Value // string

	mu     sync.Mutex
	jobs   map[string]*job
	jitter *rand.Rand // retry-backoff jitter; guarded by mu
}

// New opens the data directory, replays the journal, and re-enqueues
// every job that was submitted but never finished. Call Start to launch
// the workers and Close to stop them (leaving in-flight jobs resumable).
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("serve: Config.Dir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = DefaultJobTimeout
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	if cfg.JobAttempts <= 0 {
		cfg.JobAttempts = DefaultJobAttempts
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaintenanceEvery <= 0 {
		cfg.MaintenanceEvery = DefaultMaintenanceEvery
	}
	journal, err := OpenJournal(cfg.Dir, JournalOptions{
		FS: cfg.FS, Retry: cfg.Retry, Obs: cfg.Obs,
		SegmentMaxBytes: cfg.SegmentMaxBytes,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:     cfg,
		o:       cfg.Obs,
		journal: journal,
		queue:   newFairQueue(cfg.QueueCap),
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(map[string]*job),
		jitter:  rand.New(rand.NewSource(cfg.Seed)),
	}
	s.ready.Store(!cfg.SelfTestAdmission)
	if err := s.replay(); err != nil {
		cancel(errShutdown)
		return nil, err
	}
	return s, nil
}

// replay folds the journal into in-memory jobs and re-enqueues the
// unfinished ones. A job whose spec file is unreadable is failed
// durably — it can never run again, and the journal should say so.
func (s *Server) replay() error {
	for _, rj := range s.journal.Replay() {
		if rj.Phase == PhaseDone {
			if _, serr := os.Stat(resultPath(s.cfg.Dir, rj.ID)); errors.Is(serr, os.ErrNotExist) {
				// Eviction removes side files before appending its record; a
				// crash between the two replays as a done job whose result is
				// gone. Finish the eviction rather than resurrect a job that
				// can no longer serve its result.
				if jerr := s.journal.Append(rj.ID, EventEvicted, "replay: result missing"); jerr != nil {
					return jerr
				}
				continue
			}
		}
		j := &job{
			id:         rj.ID,
			tenant:     rj.Tenant,
			phase:      rj.Phase,
			attempts:   rj.Attempts,
			detail:     rj.Detail,
			terminalAt: rj.TerminalAt,
			events:     s.newStream(),
			done:       make(chan struct{}),
		}
		switch rj.Phase {
		case PhaseDone, PhaseFailed:
			close(j.done)
			j.events.Close()
		case PhaseQueued, PhaseRunning:
			spec, err := s.journal.LoadSpec(rj.ID)
			j.spec = spec
			if err != nil {
				// The submitted record exists but its spec does not — a
				// crash between the two should leave the orphan the other
				// way around, so name the corruption and fail the job.
				detail := fmt.Sprintf("spec unreadable on replay: %v", err)
				if jerr := s.journal.Append(rj.ID, EventFailed, detail); jerr != nil {
					return jerr
				}
				j.phase = PhaseFailed
				j.detail = detail
				close(j.done)
				j.events.Close()
				break
			}
			j.phase = PhaseQueued // a "running" job was interrupted; requeue
			// forcePush, not Push: the journal can hold more unfinished jobs
			// than QueueCap (a full queue plus the in-flight ones at crash
			// time), and refusing them here would make the server unable to
			// restart from its own journal under exactly the overload that
			// makes crashes likely. Capacity gates admission, not replay.
			if err := s.queue.forcePush(j.tenant, j.id); err != nil {
				return fmt.Errorf("serve: requeue %s on replay: %w", j.id, err)
			}
			j.enqueued = time.Now() // queue wait restarts at replay; no trace root
			s.o.Log().Info("replayed unfinished job", "job", j.id, "tenant", j.tenant,
				"attempts", j.attempts)
		}
		s.jobs[j.id] = j
	}
	return nil
}

// Start launches the worker pool. Idempotent.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				id, ok := s.queue.Pop(s.ctx)
				if !ok {
					return
				}
				s.runJob(id)
			}
		}()
	}
	s.wg.Add(1)
	go s.maintainLoop()
}

// Ready reports whether the service admits submissions (false while a
// configured admission self-test is pending or after it failed).
func (s *Server) Ready() bool { return s.ready.Load() }

// Journal exposes the server's journal (tests and the soak harness).
func (s *Server) Journal() *Journal { return s.journal }

// Close stops the service: workers are cancelled (each in-flight job's
// optimizer interrupts at its next generation boundary and persists a
// final checkpoint, leaving the job resumable), then every event stream
// is closed so SSE handlers drain. Safe to call more than once.
func (s *Server) Close() {
	s.cancel(errShutdown)
	s.queue.Close()
	s.wg.Wait()
	if err := s.journal.Close(); err != nil {
		// Every acknowledged append was fsynced; a close error loses nothing.
		s.o.Log().Warn("journal close", "err", err.Error())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.stream().Close()
	}
}

// lookup finds a job by ID.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// newStream builds a job event broadcaster with slow-consumer loss
// accounted in obs.sse.dropped.
func (s *Server) newStream() *obs.Broadcaster {
	b := obs.NewBroadcaster()
	b.SetDropCounter(s.o.Counter(MetricSSEDropped))
	return b
}

// tenantAdmitted / tenantRejected tick the per-tenant admission
// counters (label cardinality bounded by tenantLabel).
func (s *Server) tenantAdmitted(tenant string) {
	s.o.Counter(tenantMetricPrefix + tenantLabel(tenant) + ".admitted").Inc()
}

func (s *Server) tenantRejected(tenant string) {
	s.o.Counter(tenantMetricPrefix + tenantLabel(tenant) + ".rejected").Inc()
}

// submit admits a spec: cache lookup by content-derived job ID, queue
// capacity check, durable spec + journal records, then enqueue — all
// under the server mutex so the capacity check cannot race another
// submission between check and enqueue. The bool reports a cache hit.
func (s *Server) submit(spec *JobSpec, tenant string) (*job, bool, error) {
	id, err := spec.JobID()
	if err != nil {
		return nil, false, err
	}
	if tenant == "" {
		tenant = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.mu.Lock()
		failed := j.phase == PhaseFailed
		j.mu.Unlock()
		if !failed {
			// The content hash is the ID, so an identical submission — any
			// tenant, any time — lands on the existing job and its result.
			s.o.Counter(MetricCacheHits).Inc()
			return j, true, nil
		}
		// A failure is not a cacheable outcome: it may have been transient
		// (fs fault, chaos schedule), so a resubmission re-admits the job
		// with a fresh attempt window instead of replaying the stale
		// failure forever. The spec side file already exists; only the
		// journal record and queue entry are new.
		if s.queue.Full() {
			s.o.Counter(MetricOverload).Inc()
			s.tenantRejected(tenant)
			return nil, false, ErrOverloaded
		}
		root := s.o.Tracer().StartRoot("serve.job")
		admit := root.StartChild("serve.admit")
		if err := s.journal.Append(id, EventSubmitted, tenant); err != nil {
			admit.End()
			root.End()
			s.noteWriteError(err)
			return nil, false, err
		}
		admit.End()
		j.mu.Lock()
		j.phase = PhaseQueued
		j.detail = ""
		j.tenant = tenant
		j.spec = spec
		j.events = s.newStream() // the failed lifecycle's stream is closed
		j.done = make(chan struct{})
		j.root = root
		j.qwait = root.StartChild("queue.wait")
		j.enqueued = time.Now()
		j.mu.Unlock()
		if err := s.queue.Push(tenant, id); err != nil {
			return nil, false, err
		}
		s.o.Gauge(MetricQueueDepth).Set(float64(s.queue.Len()))
		s.o.Counter(MetricSubmitted).Inc()
		s.tenantAdmitted(tenant)
		s.o.Log().Info("failed job resubmitted", "job", id, "tenant", tenant)
		return j, false, nil
	}
	if s.queue.Full() {
		s.o.Counter(MetricOverload).Inc()
		s.tenantRejected(tenant)
		return nil, false, ErrOverloaded
	}
	// The trace root opens once the job is past the capacity gate: it
	// covers admission (spec + journal writes), queue wait, every attempt
	// and the result publish, and ends at the job's terminal phase.
	root := s.o.Tracer().StartRoot("serve.job")
	admit := root.StartChild("serve.admit")
	// Side file first, then the journal record referencing it: a crash
	// between the two leaves an orphaned spec file, never a journal
	// record whose spec is missing.
	if err := s.journal.WriteSpec(id, spec); err != nil {
		admit.End()
		root.End()
		s.noteWriteError(err)
		return nil, false, err
	}
	if err := s.journal.Append(id, EventSubmitted, tenant); err != nil {
		admit.End()
		root.End()
		s.noteWriteError(err)
		return nil, false, err
	}
	admit.End()
	j := &job{
		id: id, tenant: tenant, spec: spec,
		events: s.newStream(),
		done:   make(chan struct{}),
	}
	j.root = root
	j.qwait = root.StartChild("queue.wait")
	j.enqueued = time.Now()
	s.jobs[id] = j
	// Cannot fail: capacity was checked above and only dequeues shrink
	// the queue while we hold s.mu.
	if err := s.queue.Push(tenant, id); err != nil {
		return nil, false, err
	}
	s.o.Gauge(MetricQueueDepth).Set(float64(s.queue.Len()))
	s.o.Counter(MetricSubmitted).Inc()
	s.tenantAdmitted(tenant)
	s.o.Log().Info("job submitted", "job", id, "tenant", tenant)
	return j, false, nil
}

// RetryAfter estimates, in whole seconds, when an overloaded queue is
// worth retrying: the backlog divided over the worker pool, floored at
// one second.
func (s *Server) RetryAfter() int {
	n := s.queue.Len() / s.cfg.Workers
	if n < 1 {
		n = 1
	}
	return n
}

// status snapshots a job for the HTTP layer.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Tenant: j.tenant, Phase: j.phase.String(),
		Attempts: j.attempts, Detail: j.detail,
		Generation: j.gen, BestCost: j.bestCost,
		Events: "/jobs/" + j.id + "/events",
	}
	if j.phase == PhaseDone {
		st.Result = "/jobs/" + j.id + "/result"
	}
	return st
}

// setRunning transitions the job to running for one attempt.
func (j *job) setRunning(attempt int) {
	j.mu.Lock()
	j.phase = PhaseRunning
	j.attempts = attempt
	ev := j.events
	j.mu.Unlock()
	ev.Publish(progressEvent{Job: j.id, Phase: PhaseRunning.String()})
}

// progress records optimizer progress and publishes it to the stream.
func (j *job) progress(gen int, cost float64) {
	j.mu.Lock()
	j.gen = gen
	j.bestCost = cost
	ev := j.events
	j.mu.Unlock()
	ev.Publish(progressEvent{
		Job: j.id, Phase: PhaseRunning.String(),
		Generation: gen, BestCost: cost,
	})
}

// finish transitions the job to its terminal phase, drops its spec (a
// failed job's resubmission brings a new one) and closes the stream
// (after a final event) so SSE consumers and waiters return.
func (j *job) finish(phase JobPhase, detail string) {
	j.mu.Lock()
	j.spec = nil
	j.phase = phase
	j.detail = detail
	j.terminalAt = time.Now().UnixNano()
	gen, cost := j.gen, j.bestCost
	ev, done := j.events, j.done
	j.mu.Unlock()
	ev.Publish(progressEvent{
		Job: j.id, Phase: phase.String(),
		Generation: gen, BestCost: cost, Detail: detail,
	})
	ev.Close()
	close(done)
}

// runJob executes one job to a durable terminal state, with bounded
// serve-level retries (jittered backoff) around the core synthesis flow
// — which itself already retries and, when allowed, degrades. A nil,
// nil return from attempt means the server is shutting down: the job
// stays un-finished in the journal, its checkpoint on disk, and the
// next process picks it up.
func (s *Server) runJob(id string) {
	j := s.lookup(id)
	if j == nil || j.jobSpec() == nil {
		s.o.Log().Error("queued job has no state", "job", id)
		return
	}
	// Worker claim: the queue-wait stretch ends here, both as a span in
	// the job's trace and as an observation in the wait histogram.
	qwait, enqueued := j.claimTrace()
	qwait.End()
	if !enqueued.IsZero() {
		s.o.Histogram(MetricQueueWait, nil).ObserveSince(enqueued)
	}
	s.o.Gauge(MetricQueueDepth).Set(float64(s.queue.Len()))
	root := j.rootSpan()
	replayed := j.attemptCount() // replayed attempts don't count against this run
	maxAttempts := replayed + s.cfg.JobAttempts
	for attempt := replayed + 1; attempt <= maxAttempts; attempt++ {
		if s.ctx.Err() != nil {
			return // shutdown before the attempt started: stays queued in the journal
		}
		// The durable start record is an fsync on the hot path — span it,
		// or several ms per attempt go missing from the trace.
		jsp := root.StartChild("serve.journal.start")
		jerr := s.journal.Append(id, EventStarted, strconv.Itoa(attempt))
		jsp.End()
		if jerr != nil {
			// Without a durable start record the journal is the wrong
			// shape to trust; fail the attempt as if the job had.
			s.noteWriteError(jerr)
			s.o.Log().Error("journal append failed", "job", id, "err", jerr.Error())
			j.finish(PhaseFailed, fmt.Sprintf("journal append: %v", jerr))
			s.o.Counter(MetricFailed).Inc()
			root.End()
			return
		}
		j.setRunning(attempt)
		asp := root.StartChild("serve.attempt")
		res, err := s.attempt(j, asp)
		asp.End()
		switch {
		case err == nil && res == nil:
			// Shutdown mid-attempt: checkpoint written, job resumable. The
			// trace root stays open (the job did not finish); the tracer's
			// active-trace cap reclaims it.
			return
		case err == nil:
			psp := root.StartChild("serve.publish")
			ferr := s.finishJob(j, res)
			psp.End()
			if ferr == nil {
				root.End()
				return
			}
			err = ferr
		}
		s.o.Log().Warn("job attempt failed",
			"job", id, "attempt", attempt, "of", maxAttempts, "err", err.Error())
		if attempt == maxAttempts {
			detail := err.Error()
			if jerr := s.journal.Append(id, EventFailed, detail); jerr != nil {
				s.noteWriteError(jerr)
				s.o.Log().Error("journal append failed", "job", id, "err", jerr.Error())
			}
			j.finish(PhaseFailed, detail)
			s.o.Counter(MetricFailed).Inc()
			root.End()
			return
		}
		s.o.Counter(MetricRetries).Inc()
		bsp := root.StartChild("serve.backoff")
		s.backoff(attempt)
		bsp.End()
	}
}

// backoff sleeps between serve-level attempts: exponential from 50ms,
// capped at 2s, jittered over [d/2, 3d/2) by the server's seeded source,
// and cut short by shutdown.
func (s *Server) backoff(attempt int) {
	// Clamp the exponent before shifting: attempts accumulate across
	// restarts via journal replay, and an unclamped shift overflows into
	// a negative or zero duration whose jitter draw would panic.
	e := attempt - 1
	if e > 6 {
		e = 6 // 50ms<<6 already exceeds the 2s cap below
	}
	d := 50 * time.Millisecond << e
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	s.mu.Lock()
	d = d/2 + time.Duration(s.jitter.Int63n(int64(d)))
	s.mu.Unlock()
	select {
	case <-s.ctx.Done():
	case <-time.After(d):
	}
}

// attempt runs one synthesis attempt. sp is the attempt's trace span
// (nil when untraced); it rides the context so core and evolution
// phases attach their own children. Returns (nil, nil) when the attempt
// was interrupted by server shutdown — resumable, not failed.
func (s *Server) attempt(j *job, sp *obs.TraceSpan) (*JobResult, error) {
	spec := j.jobSpec()
	c, err := spec.Circuit()
	if err != nil {
		return nil, err
	}
	opt, err := spec.Options()
	if err != nil {
		return nil, err
	}
	// Each job runs as its own obs run over the server's shared registry
	// and log output: metrics aggregate service-wide, status stays per-job.
	jobObs := s.o.Child(j.id)
	opt.Obs = jobObs
	opt.Degrade = opt.Method == core.MethodEvolution
	ckpt := checkpointPath(s.cfg.Dir, j.id)
	if opt.Method == core.MethodEvolution {
		// The optimizer publishes its own live status on jobObs; the trace
		// only feeds the job's SSE stream and /jobs/{id} view. (It must not
		// call jobObs.SetStatus itself: the status atomic requires one
		// concrete type per run, and the optimizer owns it.)
		opt.Control = &evolution.Control{
			CheckpointPath:  ckpt,
			CheckpointEvery: s.cfg.CheckpointEvery,
			Trace: func(gen int, _ *partition.Partition, cost float64) {
				j.progress(gen, cost)
			},
			FS:    s.cfg.FS,
			Retry: s.cfg.Retry,
		}
		if ck, lerr := evolution.LoadCheckpoint(ckpt); lerr == nil {
			if ck.Circuit == c.Name && ck.Gates == c.NumGates() {
				opt.Resume = ck
				s.o.Counter(MetricResumed).Inc()
				s.o.Log().Info("resuming job from checkpoint",
					"job", j.id, "gen", ck.Generation, "best_cost", ck.BestCost)
			}
		} else if !errors.Is(lerr, os.ErrNotExist) {
			// A corrupt checkpoint must not wedge the job: start fresh and
			// say so. The determinism of the seeded run makes the restart
			// converge on the identical result.
			s.o.Log().Warn("ignoring unusable checkpoint", "job", j.id, "err", lerr.Error())
		}
	}
	timeout, err := spec.JobTimeout()
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = s.cfg.JobTimeout
	}
	ctx, cancel := context.WithTimeout(s.ctx, timeout)
	defer cancel()
	ctx = chaos.NewContext(obs.ContextWithSpan(ctx, sp), s.cfg.Chaos)
	res, err := core.SynthesizeContext(ctx, c, opt)
	if err != nil {
		if errors.Is(context.Cause(s.ctx), errShutdown) {
			return nil, nil
		}
		return nil, err
	}
	timedOut := false
	if ev := res.Evolution; ev != nil && ev.Interrupted {
		if errors.Is(context.Cause(s.ctx), errShutdown) {
			// The final checkpoint is on disk (interrupt wrote it); leave
			// the journal un-finished so replay resumes this job.
			return nil, nil
		}
		// The job's own budget expired: its best-so-far design passed the
		// core audit, so it ships — marked, never silently.
		timedOut = true
	}
	jr := &JobResult{
		ID:       j.id,
		Circuit:  c.Name,
		Method:   res.Method.String(),
		Gates:    c.NumLogicGates(),
		Modules:  res.Partition.NumModules(),
		Cost:     res.Partition.Cost(),
		Feasible: res.Partition.Feasible(),
		Groups:   res.Partition.Groups(),
		Degraded: res.Degraded,
		TimedOut: timedOut,
		Report:   res.Report(),
	}
	if res.Evolution != nil {
		jr.Generations = res.Evolution.Generations
		jr.Evaluations = res.Evolution.Evaluations
	}
	if res.DegradedErr != nil {
		jr.DegradedErr = res.DegradedErr.Error()
	}
	return jr, nil
}

// finishJob publishes the result durably (side file first, then the
// journal record) and transitions the job.
func (s *Server) finishJob(j *job, res *JobResult) error {
	if err := s.journal.WriteResult(res); err != nil {
		s.noteWriteError(err)
		return err
	}
	detail := ""
	switch {
	case res.Degraded:
		detail = "degraded"
		s.o.Counter(MetricDegraded).Inc()
	case res.TimedOut:
		detail = "timeout"
	}
	if err := s.journal.Append(j.id, EventFinished, detail); err != nil {
		s.noteWriteError(err)
		return err
	}
	j.finish(PhaseDone, detail)
	s.o.Counter(MetricFinished).Inc()
	s.o.Log().Info("job finished", "job", j.id, "modules", res.Modules,
		"cost", res.Cost, "degraded", res.Degraded, "timed_out", res.TimedOut)
	return nil
}

// Jobs snapshots every job's status, newest phase first not guaranteed —
// ordering is by job ID for determinism.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	ids := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		ids = append(ids, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, j := range ids {
		out = append(out, j.status())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
