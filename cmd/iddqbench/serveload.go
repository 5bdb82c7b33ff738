package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iddqsyn/internal/bench"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/serve"
)

// clients is the closed loop's size: two client goroutines, each waiting
// for its job's terminal event before submitting the next, over at most
// two connections. The server runs its default two workers, so the
// numbers measure the service rather than a queue the load generator
// built.
const clients = 2

// hitPool is how many distinct finished jobs serve-hit-c880 resubmits.
const hitPool = 8

// serveRunner drives an in-process serve.Server over a loopback listener.
type serveRunner struct {
	w       *workload
	cfg     *config
	gens    int
	netlist string
	dir     string
	o       *obs.Obs
	tr      *obs.Tracer // trace mode only
	srv     *serve.Server
	hsrv    *http.Server
	served  chan error
	base    string
	client  *http.Client

	// pool holds the jobs the warm-up finished: the one fresh job of
	// serve-c880, the resubmitted set of serve-hit-c880.
	pool []servedJob

	// accepted and hits count the submissions the service answered as
	// new (202) and as cache hits (200); its own counters must agree.
	accepted, hits atomic.Int64

	// issued counts each client's timed ops over earlier loops, so a
	// second loop submits specs the first did not.
	issued [clients]int
}

// servedJob is one finished job as a client saw it.
type servedJob struct {
	spec   *serve.JobSpec
	id     string
	cost   float64 // best cost carried by the terminal event
	result serve.JobResult
}

// jobOp is one timed submission: latency from POST to the terminal SSE
// event, its two legs, and the outcome of its checks.
type jobOp struct {
	lat, submit, events time.Duration
	cost                float64
	modules             int
	checks              []checkResult
}

type checkResult struct {
	name, detail string
	ok           bool
}

func (op *jobOp) check(name string, ok bool, detail string) {
	op.checks = append(op.checks, checkResult{name, detail, ok})
}

func (op *jobOp) failed() bool {
	for _, c := range op.checks {
		if !c.ok {
			return true
		}
	}
	return false
}

func newServeRunner(cfg *config, w *workload) (*serveRunner, error) {
	c, err := circuits.ISCAS85Like(w.circuit)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "serve-*")
	if err != nil {
		return nil, fmt.Errorf("serve scratch dir: %w", err)
	}
	r := &serveRunner{
		w: w, cfg: cfg, gens: cfg.generations(w), netlist: bench.Format(c), dir: dir,
		o: obs.New("iddqbench", nil, nil), served: make(chan error, 1),
	}
	if cfg.trace {
		// Retain every job's trace whole: the per-layer numbers are
		// medians over all traced jobs, not over the slowest few.
		r.tr = obs.NewTracer(obs.TracerConfig{Slowest: 1 << 13})
		r.o.SetTracer(r.tr)
	}
	r.srv, err = serve.New(serve.Config{Dir: filepath.Join(dir, "data"), Obs: r.o})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	r.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.srv.Close()
		_ = os.RemoveAll(dir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.hsrv = obs.HardenedServerMax(r.srv.Handler(), serve.MaxSubmitBytes)
	go func() { r.served <- r.hsrv.Serve(ln) }()
	r.base = "http://" + ln.Addr().String()
	r.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	return r, nil
}

func (r *serveRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = r.hsrv.Shutdown(ctx) // stragglers are cut off; nothing is in flight after a run
	cancel()
	<-r.served
	r.srv.Close()
	r.client.CloseIdleConnections()
	_ = os.RemoveAll(r.dir) // scratch only
}

func (r *serveRunner) spec(i int) *serve.JobSpec {
	return &serve.JobSpec{
		Netlist: r.netlist, Name: r.w.circuit, ModuleSize: r.w.moduleSize,
		Generations: r.gens, Seed: opSeed(r.cfg.seed, r.w, i),
	}
}

// warmup finishes the jobs set-up needs: one fresh job for serve-c880,
// the resubmission pool for serve-hit-c880 (submitted by both clients).
func (r *serveRunner) warmup(ctx context.Context) (string, error) {
	n := 1
	if r.w.kind == kindServeHit {
		n = hitPool
	}
	r.pool = make([]servedJob, n)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += clients {
				spec := r.spec(i)
				op, job := r.freshOp(ctx, spec, k)
				if op.failed() {
					errs[k] = fmt.Errorf("warm-up job %d: %s", i, firstFailure(op))
					return
				}
				r.pool[i] = job
			}
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return "", err
	}
	return fingerprint(floatBits(poolCosts(r.pool)...)), nil
}

func poolCosts(pool []servedJob) []float64 {
	costs := make([]float64, len(pool))
	for i, j := range pool {
		costs[i] = j.result.Cost
	}
	return costs
}

// op runs client k's i-th timed submission.
func (r *serveRunner) op(ctx context.Context, k, i int) jobOp {
	i += r.issued[k]
	if r.w.kind == kindServeHit {
		return r.hitOp(ctx, r.pool[k+clients*(i%(hitPool/clients))], k)
	}
	op, _ := r.freshOp(ctx, r.spec(1+i*clients+k), k)
	return op
}

// freshOp submits a spec the service has not seen and follows it to the
// end. The result fetch that feeds the checks is not timed.
func (r *serveRunner) freshOp(ctx context.Context, spec *serve.JobSpec, k int) (jobOp, servedJob) {
	op, st, ev, code, err := r.submitAndWait(ctx, spec, k)
	if err != nil {
		op.check("request", false, err.Error())
		return op, servedJob{}
	}
	op.check("admitted as a fresh job", code == http.StatusAccepted, fmt.Sprintf("status %d", code))
	var res serve.JobResult
	if err := r.getJSON(ctx, "/jobs/"+st.ID+"/result", &res); err != nil {
		op.check("result", false, err.Error())
		return op, servedJob{}
	}
	op.check("job done, not degraded, not timed out, feasible",
		ev.Phase == "done" && ev.Detail == "" && !res.Degraded && !res.TimedOut && res.Feasible,
		fmt.Sprintf("phase %q detail %q degraded %v timed out %v feasible %v",
			ev.Phase, ev.Detail, res.Degraded, res.TimedOut, res.Feasible))
	want := wantEvaluations(r.w.params(spec.Seed, r.gens))
	op.check("work: generations and evaluations fixed",
		res.Generations == r.gens && res.Evaluations == want,
		fmt.Sprintf("%d generations, %d evaluations; want %d, %d", res.Generations, res.Evaluations, r.gens, want))
	op.check("served cost equals the terminal event's", res.Cost == ev.BestCost,
		fmt.Sprintf("result %v, event %v", res.Cost, ev.BestCost))
	op.cost, op.modules = res.Cost, res.Modules
	return op, servedJob{spec: spec, id: st.ID, cost: ev.BestCost, result: res}
}

// hitOp resubmits a finished job's spec: the service must answer from its
// content-hash cache with the original job and cost.
func (r *serveRunner) hitOp(ctx context.Context, orig servedJob, k int) jobOp {
	op, st, ev, code, err := r.submitAndWait(ctx, orig.spec, k)
	if err != nil {
		op.check("request", false, err.Error())
		return op
	}
	op.check("resubmission is a cache hit", code == http.StatusOK && st.ID == orig.id,
		fmt.Sprintf("status %d, job %s (original %s)", code, st.ID, orig.id))
	op.check("cache hit returns the original cost",
		ev.Phase == "done" && ev.BestCost == orig.cost && st.BestCost == orig.cost,
		fmt.Sprintf("phase %q, event cost %v, status cost %v, original %v", ev.Phase, ev.BestCost, st.BestCost, orig.cost))
	op.cost, op.modules = ev.BestCost, orig.result.Modules
	return op
}

// sseEvent is the part of a job's progress event the benchmark reads.
type sseEvent struct {
	Phase    string  `json:"phase"`
	BestCost float64 `json:"best_cost"`
	Detail   string  `json:"detail"`
}

// submitAndWait POSTs the spec and reads the job's SSE stream to its
// terminal event.
func (r *serveRunner) submitAndWait(ctx context.Context, spec *serve.JobSpec, k int) (jobOp, serve.JobStatus, sseEvent, int, error) {
	var op jobOp
	var st serve.JobStatus
	var ev sseEvent
	body, err := json.Marshal(spec)
	if err != nil {
		return op, st, ev, 0, err
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return op, st, ev, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", fmt.Sprintf("client-%d", k))
	resp, err := r.client.Do(req)
	if err != nil {
		return op, st, ev, 0, fmt.Errorf("submit: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	_ = resp.Body.Close()
	op.submit = time.Since(t0)
	switch {
	case resp.StatusCode == http.StatusAccepted:
		r.accepted.Add(1)
	case resp.StatusCode == http.StatusOK:
		r.hits.Add(1)
	default:
		return op, st, ev, resp.StatusCode, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	if err != nil {
		return op, st, ev, resp.StatusCode, fmt.Errorf("submit: decode status: %w", err)
	}
	t1 := time.Now()
	ev, err = r.terminalEvent(ctx, st.ID)
	op.events = time.Since(t1)
	op.lat = time.Since(t0)
	return op, st, ev, resp.StatusCode, err
}

// terminalEvent follows the job's SSE stream until its done or failed
// event.
func (r *serveRunner) terminalEvent(ctx context.Context, id string) (sseEvent, error) {
	var ev sseEvent
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return ev, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return ev, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ev, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	return readTerminalEvent(resp.Body)
}

// readTerminalEvent reads SSE data lines until a done or failed event. The
// request's context ends the read if the stream stalls.
func readTerminalEvent(body io.Reader) (sseEvent, error) {
	var ev sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return ev, fmt.Errorf("events: %w", err)
		}
		if ev.Phase == "done" || ev.Phase == "failed" {
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return ev, fmt.Errorf("events: %w", err)
	}
	return ev, errors.New("events: stream ended without a terminal event")
}

func (r *serveRunner) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// loop runs the closed loop for d (or, with ops > 0, for exactly ops
// submissions) and returns the ops, client by client.
func (r *serveRunner) loop(ctx context.Context, d time.Duration, ops int) []jobOp {
	perClient := make([][]jobOp, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				if ops > 0 && i*clients+k >= ops || ops <= 0 && time.Since(start) >= d {
					return
				}
				perClient[k] = append(perClient[k], r.op(ctx, k, i))
			}
		}(k)
	}
	wg.Wait()
	var all []jobOp
	for k, ops := range perClient {
		r.issued[k] += len(ops)
		all = append(all, ops...)
	}
	return all
}

// tally records the ops' checks and returns the successful ops.
func tally(rep *report, ops []jobOp) []jobOp {
	var good []jobOp
	for _, op := range ops {
		rep.Attempted++
		for _, c := range op.checks {
			rep.check(c.name, c.ok, c.detail)
		}
		if op.failed() {
			rep.Failed++
			continue
		}
		good = append(good, op)
	}
	return good
}

// finalChecks re-runs the warm-up job's spec straight through core (its
// result must equal the served one bit for bit) and checks that the
// service's submission counters agree with what the clients saw. The
// direct result is returned for the per-layer replays.
func (r *serveRunner) finalChecks(ctx context.Context, rep *report) *core.Result {
	snap := r.o.Registry().Snapshot()
	submitted, hits := snap.Counters[serve.MetricSubmitted], snap.Counters[serve.MetricCacheHits]
	rep.verify("service counts every submission the clients made",
		int64(submitted) == r.accepted.Load() && int64(hits) == r.hits.Load(),
		fmt.Sprintf("service: %d new, %d hits; clients: %d new, %d hits",
			submitted, hits, r.accepted.Load(), r.hits.Load()))

	job := r.pool[0]
	c, err := job.spec.Circuit()
	if err != nil {
		rep.verify("direct synthesis matches the served job", false, err.Error())
		return nil
	}
	opt, err := job.spec.Options()
	if err != nil {
		rep.verify("direct synthesis matches the served job", false, err.Error())
		return nil
	}
	res, err := core.SynthesizeContext(ctx, c, opt)
	if !rep.verify("direct synthesis matches the served job", err == nil && res.Partition.Cost() == job.result.Cost,
		fmt.Sprintf("served %v, direct %v (err %v)", job.result.Cost, costOf(res), err)) {
		return nil
	}
	return res
}

func (r *serveRunner) measure(ctx context.Context) (*report, error) {
	rep := newReport()
	good := tally(rep, r.loop(ctx, r.cfg.window(), r.cfg.ops))
	r.finalChecks(ctx, rep)
	if len(good) == 0 {
		return rep, nil
	}
	// A hit returns its original job's cost, so the served designs are the
	// pool's; fresh jobs each bring their own.
	costs := poolCosts(r.pool)
	if r.w.kind == kindServe {
		costs = opCosts(good)
	}
	lats := opLatencies(good)
	rep.set("op_p50_s", quantile(lats, 0.5), lats)
	rep.set("final_cost_mean", mean(costs), costs)
	rep.set("peak_rss_mb", peakRSSMB(), nil)
	return rep, nil
}

// trace runs the window twice, tracing off then on: the difference is the
// tracing overhead, and the second half's spans give the serving layers'
// times.
func (r *serveRunner) trace(ctx context.Context) (*report, error) {
	rep := newReport()
	half := r.cfg.window() / 2
	r.o.SetTracer(nil)
	plainGood := tally(rep, r.loop(ctx, half, r.cfg.ops))
	r.o.SetTracer(r.tr)
	good := tally(rep, r.loop(ctx, half, r.cfg.ops))

	runtime.GC()
	a0 := totalAlloc()
	res := r.finalChecks(ctx, rep)
	alloc := float64(totalAlloc()-a0) / (1 << 20)
	if res == nil || len(good) == 0 || len(plainGood) == 0 {
		return rep, nil
	}
	m := r.layers(good, plainGood)
	m["core.alloc_mb"] = alloc
	rep.verify("work: mutations applied", m["evolution.mutation.applied_ratio"] > 0, "no mutation moved a gate")
	k, ov, err := standardAtEqualK(ctx, r.tr, res)
	if err != nil {
		return nil, err
	}
	m["standard.partitionk_s"], m["standard.area_overhead_pct"] = k, ov
	mergeInto(m, replays(res, r.w.moduleSize, r.pool[0].spec.Seed))
	finishLayers(m)
	rep.setAll(m)
	return rep, nil
}

// layers derives the per-layer numbers from the traced jobs' spans, the
// service's counters, and the clients' timings of the traced (good) and
// untraced (plain) windows.
func (r *serveRunner) layers(good, plain []jobOp) map[string]float64 {
	var times []traceTimes
	phase := map[string][]float64{}
	for _, t := range traceRecords(r.tr) {
		if t.Root != "serve.job" {
			continue
		}
		times = append(times, newTraceTimes(t))
		for _, sp := range t.Spans {
			phase[sp.Name] = append(phase[sp.Name], float64(sp.Dur)/1e9)
		}
	}
	m := spanLayers(times)
	snap := r.o.Registry().Snapshot()
	mergeInto(m, registryLayers(snap, float64(snap.Counters[serve.MetricFinished])))
	p50 := func(name string) float64 { return quantile(phase[name], 0.5) }
	var submits, events, modules []float64
	for _, op := range good {
		submits = append(submits, op.submit.Seconds())
		events = append(events, op.events.Seconds())
		modules = append(modules, float64(op.modules))
	}
	lat := quantile(opLatencies(good), 0.5)
	m["serve.submit_rtt_s"] = quantile(submits, 0.5)
	m["serve.events_rtt_s"] = quantile(events, 0.5)
	m["serve.admit_s"] = p50("serve.admit")
	m["serve.queue_wait_p50_s"] = p50("queue.wait")
	m["serve.queue_wait_p90_s"] = quantile(phase["queue.wait"], 0.9)
	m["serve.journal_start_s"] = p50("serve.journal.start")
	m["serve.attempt_s"] = p50("serve.attempt")
	m["serve.publish_s"] = p50("serve.publish")
	if r.w.kind == kindServeHit {
		// A hit's job finished long ago: its whole event leg is tail.
		m["serve.sse_tail_s"] = m["serve.events_rtt_s"]
	} else {
		m["serve.sse_tail_s"] = lat - p50("serve.job")
	}
	submitted, hits := float64(snap.Counters[serve.MetricSubmitted]), float64(snap.Counters[serve.MetricCacheHits])
	m["serve.cache_hit_ratio"] = hits / (hits + submitted)
	m["serve.journal_bytes_per_job"] = snap.Gauges[serve.MetricJournalBytes] / submitted
	m["trace_overhead_pct"] = 100 * (lat/quantile(opLatencies(plain), 0.5) - 1)
	m["partition.modules_mean"] = mean(modules)
	return m
}

func opLatencies(ops []jobOp) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = op.lat.Seconds()
	}
	return out
}

func opCosts(ops []jobOp) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = op.cost
	}
	return out
}

func firstFailure(op jobOp) string {
	for _, c := range op.checks {
		if !c.ok {
			return c.name + ": " + c.detail
		}
	}
	return ""
}
