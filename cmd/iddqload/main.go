// Command iddqload is the open-loop saturation harness for iddqserve:
// it submits partition-synthesis jobs at a configured arrival rate
// (seed-deterministic exponential inter-arrivals, multiple tenants, no
// closed-loop backoff — late responses never slow the schedule down, so
// queueing delay shows up as latency instead of hiding in the load
// generator), measures end-to-end latency from POST to terminal SSE
// event, and writes a LOAD_<n>.json report: p50/p90/p99/p99.9, achieved
// vs offered rate, 429/Retry-After and storage-shed 503 counts, the
// queue-depth timeline, and the slowest retained causal traces with
// their span decomposition.
//
// Usage:
//
//	iddqload -addr http://127.0.0.1:8080 -rate 5 -duration 10s
//	iddqload -inprocess -rate 8 -duration 5s -out LOAD_8.json
//	iddqload -inprocess -sweep -rate 2 -rate-max 64 -slo-p99 2s
//
// -inprocess boots a real iddqserve service (serve.Server behind a
// loopback HTTP listener, tracing armed) so CI can measure saturation
// without orchestrating processes. -sweep steps the arrival rate by
// -rate-factor until the p99 SLO breaks or submissions are mostly
// rejected, reporting the maximum sustainable throughput.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iddqsyn/internal/obs"
	"iddqsyn/internal/serve"
)

// Report format identity.
const (
	loadFormat  = "iddqsyn-load-report"
	loadVersion = 1
)

// perRequestTimeout bounds one request's submit + SSE wait; a request
// beyond it counts as failed, never wedges the harness.
const perRequestTimeout = 2 * time.Minute

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iddqload:", err)
		os.Exit(1)
	}
}

type config struct {
	addr       string
	inprocess  bool
	rate       float64
	rateMax    float64
	rateFactor float64
	sweep      bool
	duration   time.Duration
	tenants    int
	seed       int64
	benchPath  string
	gens       int
	sloP99     time.Duration
	pr         int
	out        string
	summaryOut string
	tracezOut  string

	inprocWorkers   int
	inprocQueueCap  int
	inprocCkptEvery int
}

func parseFlags() *config {
	c := &config{}
	flag.StringVar(&c.addr, "addr", "", "target iddqserve base URL (e.g. http://127.0.0.1:8080); empty requires -inprocess")
	flag.BoolVar(&c.inprocess, "inprocess", false, "boot an in-process iddqserve over a loopback listener and load it")
	flag.Float64Var(&c.rate, "rate", 4, "offered arrival rate in requests/second (the sweep's starting rate)")
	flag.Float64Var(&c.rateMax, "rate-max", 64, "sweep: stop stepping beyond this rate")
	flag.Float64Var(&c.rateFactor, "rate-factor", 1.6, "sweep: multiply the rate by this factor per step")
	flag.BoolVar(&c.sweep, "sweep", false, "step the rate until the p99 SLO breaks; report max sustainable throughput")
	flag.DurationVar(&c.duration, "duration", 10*time.Second, "offered-load duration per step")
	flag.IntVar(&c.tenants, "tenants", 2, "number of distinct tenants submitting")
	flag.Int64Var(&c.seed, "seed", 1, "seed for the deterministic arrival schedule and spec mix")
	flag.StringVar(&c.benchPath, "bench", "benchmarks/c432.bench", "bench netlist submitted by every request")
	flag.IntVar(&c.gens, "gens", 12, "evolution generations per job (small = ms-scale jobs)")
	flag.DurationVar(&c.sloP99, "slo-p99", 2*time.Second, "p99 end-to-end latency SLO")
	flag.IntVar(&c.pr, "pr", 8, "report index n in LOAD_<n>.json")
	flag.StringVar(&c.out, "out", "", "report path (default LOAD_<pr>.json)")
	flag.StringVar(&c.summaryOut, "summary", "", "also write a compact latency summary JSON here")
	flag.StringVar(&c.tracezOut, "tracez-out", "", "after the run, save the /tracez Chrome trace_event export here")
	flag.IntVar(&c.inprocWorkers, "inproc-workers", 2, "in-process server: job worker pool size")
	flag.IntVar(&c.inprocQueueCap, "inproc-queue-cap", serve.DefaultQueueCap, "in-process server: admission queue bound")
	flag.IntVar(&c.inprocCkptEvery, "inproc-checkpoint-every", 50, "in-process server: checkpoint cadence in generations")
	flag.Parse()
	if c.out == "" {
		c.out = fmt.Sprintf("LOAD_%d.json", c.pr)
	}
	return c
}

// latencySummary is the quantile view of one step's e2e latencies.
type latencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// depthSample is one point of the queue-depth timeline.
type depthSample struct {
	ElapsedMS int64   `json:"elapsed_ms"`
	Depth     float64 `json:"depth"`
}

// stepReport is one offered-rate step.
type stepReport struct {
	OfferedRate  float64 `json:"offered_rate"`
	AchievedRate float64 `json:"achieved_rate"` // completions per second of wall time
	Submitted    int64   `json:"submitted"`
	Completed    int64   `json:"completed"`
	Failed       int64   `json:"failed"`
	Rejected429  int64   `json:"rejected_429"`
	// Shed503 counts storage-pressure sheds (503 + Retry-After): the
	// server refusing to take on more durable state, as opposed to the
	// queue being momentarily full (429). The two ask for different
	// operator responses — wait versus add disk — so they are never
	// summed into one rejection figure.
	Shed503        int64          `json:"shed_503"`
	RetryAfterMax  int            `json:"retry_after_max_seconds,omitempty"`
	LatencySeconds latencySummary `json:"latency_seconds"`
	QueueDepth     []depthSample  `json:"queue_depth_timeline,omitempty"`
	SLOMet         bool           `json:"slo_met"`
}

// spanView aggregates a trace's spans by name for the report.
type spanView struct {
	Name       string  `json:"name"`
	Count      int     `json:"count"`
	DurationMS float64 `json:"duration_ms"`
}

// traceView is one retained slowest trace, decomposed.
type traceView struct {
	Trace       uint64     `json:"trace"`
	Root        string     `json:"root"`
	DurationMS  float64    `json:"duration_ms"`
	CoveragePct float64    `json:"coverage_pct"` // direct children / root duration
	Spans       []spanView `json:"spans"`
}

// loadReport is the LOAD_<n>.json document.
type loadReport struct {
	Format             string       `json:"format"`
	Version            int          `json:"version"`
	PR                 int          `json:"pr"`
	Mode               string       `json:"mode"` // "fixed" or "sweep"
	Target             string       `json:"target"`
	Bench              string       `json:"bench"`
	Generations        int          `json:"generations"`
	Tenants            int          `json:"tenants"`
	Seed               int64        `json:"seed"`
	SLOP99Seconds      float64      `json:"slo_p99_seconds"`
	Steps              []stepReport `json:"steps"`
	MaxSustainableRate float64      `json:"max_sustainable_rate,omitempty"`
	SlowestTraces      []traceView  `json:"slowest_traces,omitempty"`
}

func run() error {
	cfg := parseFlags()
	netlist, err := os.ReadFile(cfg.benchPath)
	if err != nil {
		return err
	}
	base := cfg.addr
	var shutdown func()
	if cfg.inprocess {
		if base != "" {
			return errors.New("-addr and -inprocess are mutually exclusive")
		}
		base, shutdown, err = bootInprocess(cfg)
		if err != nil {
			return err
		}
		defer shutdown()
	}
	if base == "" {
		return errors.New("no target: set -addr or -inprocess")
	}
	base = strings.TrimRight(base, "/")

	rep := &loadReport{
		Format: loadFormat, Version: loadVersion, PR: cfg.pr,
		Mode: "fixed", Target: base,
		Bench: filepath.Base(cfg.benchPath), Generations: cfg.gens,
		Tenants: cfg.tenants, Seed: cfg.seed,
		SLOP99Seconds: cfg.sloP99.Seconds(),
	}
	if cfg.sweep {
		rep.Mode = "sweep"
	}

	rate := cfg.rate
	for step := 0; ; step++ {
		fmt.Fprintf(os.Stderr, "iddqload: step %d — offered %.2f req/s for %s\n",
			step+1, rate, cfg.duration)
		sr, err := runStep(cfg, base, string(netlist), rate, step)
		if err != nil {
			return err
		}
		rep.Steps = append(rep.Steps, *sr)
		fmt.Fprintf(os.Stderr, "iddqload:   completed %d/%d  p50 %.1fms  p99 %.1fms  429s %d  shed503s %d  slo_met %v\n",
			sr.Completed, sr.Submitted, 1e3*sr.LatencySeconds.P50, 1e3*sr.LatencySeconds.P99,
			sr.Rejected429, sr.Shed503, sr.SLOMet)
		if sr.SLOMet {
			rep.MaxSustainableRate = rate
		}
		if !cfg.sweep {
			break
		}
		// The sweep stops at the first step that breaks the SLO or whose
		// offered load is mostly bounced at the door — beyond either, a
		// higher rate only measures the rejection path (429 or shed 503).
		if !sr.SLOMet || (sr.Submitted > 0 && (sr.Rejected429+sr.Shed503)*2 > sr.Submitted) {
			break
		}
		rate *= cfg.rateFactor
		if rate > cfg.rateMax {
			break
		}
	}

	if err := collectTraces(cfg, base, rep); err != nil {
		fmt.Fprintf(os.Stderr, "iddqload: trace collection failed: %v\n", err)
	}

	if err := writeJSON(cfg.out, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "iddqload: wrote %s\n", cfg.out)
	if cfg.summaryOut != "" {
		last := rep.Steps[len(rep.Steps)-1]
		if err := writeJSON(cfg.summaryOut, struct {
			OfferedRate    float64        `json:"offered_rate"`
			AchievedRate   float64        `json:"achieved_rate"`
			LatencySeconds latencySummary `json:"latency_seconds"`
		}{last.OfferedRate, last.AchievedRate, last.LatencySeconds}); err != nil {
			return err
		}
	}
	if rep.Mode == "sweep" {
		fmt.Fprintf(os.Stderr, "iddqload: max sustainable rate under p99<=%s: %.2f req/s\n",
			cfg.sloP99, rep.MaxSustainableRate)
	}
	var total int64
	for _, s := range rep.Steps {
		total += s.Completed
	}
	if total == 0 {
		return errors.New("no request completed; the target is down or overloaded beyond measurement")
	}
	return nil
}

// bootInprocess starts a full serve.Server (tracing armed) behind a real
// loopback listener, so the measured path includes the HTTP stack.
func bootInprocess(cfg *config) (string, func(), error) {
	dir, err := os.MkdirTemp("", "iddqload-*")
	if err != nil {
		return "", nil, err
	}
	o := obs.New(obs.NewRunID(), nil, nil)
	o.SetTracer(obs.NewTracer(obs.TracerConfig{}))
	s, err := serve.New(serve.Config{
		Dir:             filepath.Join(dir, "data"),
		Workers:         cfg.inprocWorkers,
		QueueCap:        cfg.inprocQueueCap,
		CheckpointEvery: cfg.inprocCkptEvery,
		Seed:            cfg.seed,
		Obs:             o,
	})
	if err != nil {
		_ = os.RemoveAll(dir)
		return "", nil, err
	}
	s.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		_ = os.RemoveAll(dir)
		return "", nil, err
	}
	srv := obs.HardenedServerMax(s.Handler(), serve.MaxSubmitBytes)
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "iddqload: in-process iddqserve on %s (%d workers, data in %s)\n",
		base, cfg.inprocWorkers, dir)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		s.Close()
		_ = os.RemoveAll(dir)
	}
	return base, shutdown, nil
}

// runStep offers cfg.duration of open-loop load at the given rate.
func runStep(cfg *config, base, netlist string, rate float64, step int) (*stepReport, error) {
	// The schedule is deterministic in (seed, step): exponential
	// inter-arrivals and the tenant assignment replay exactly.
	rng := rand.New(rand.NewSource(cfg.seed + int64(step)*7919))
	reg := obs.NewRegistry()
	lat := reg.Histogram("e2e.seconds", obs.ExpBuckets(1e-3, 1.25, 56))

	var (
		submitted, completed, failed, rejected atomic.Int64
		shed                                   atomic.Int64
		retryAfterMax                          atomic.Int64
		maxLatNanos                            atomic.Int64
		wg                                     sync.WaitGroup
	)
	stepCtx, stopStep := context.WithCancel(context.Background())
	defer stopStep()

	// Queue-depth timeline: sampled from the live /metricz gauge.
	var depthMu sync.Mutex
	var depths []depthSample
	wallStart := time.Now()
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stepCtx.Done():
				return
			case <-tick.C:
				if d, ok := fetchQueueDepth(base); ok {
					depthMu.Lock()
					depths = append(depths, depthSample{
						ElapsedMS: time.Since(wallStart).Milliseconds(), Depth: d,
					})
					depthMu.Unlock()
				}
			}
		}
	}()

	client := &http.Client{}
	deadline := time.Now().Add(cfg.duration)
	for i := 0; time.Now().Before(deadline); i++ {
		// Open loop: the next arrival is scheduled from the seeded
		// exponential distribution regardless of how the previous
		// requests are doing.
		wait := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		time.Sleep(wait)
		if !time.Now().Before(deadline) {
			break
		}
		spec := &serve.JobSpec{
			Netlist:     netlist,
			Generations: cfg.gens,
			// A unique seed per request defeats the content-hash result
			// cache, so every submission is real synthesis work.
			Seed:   int64(step)*1_000_000 + int64(i) + 2,
			Tenant: fmt.Sprintf("tenant-%d", rng.Intn(cfg.tenants)),
		}
		submitted.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, status, retryAfter, err := oneRequest(client, base, spec)
			switch {
			case err == nil && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable):
				if status == http.StatusServiceUnavailable {
					shed.Add(1)
				} else {
					rejected.Add(1)
				}
				for {
					old := retryAfterMax.Load()
					if int64(retryAfter) <= old || retryAfterMax.CompareAndSwap(old, int64(retryAfter)) {
						break
					}
				}
			case err == nil:
				completed.Add(1)
				lat.Observe(d.Seconds())
				for {
					old := maxLatNanos.Load()
					if int64(d) <= old || maxLatNanos.CompareAndSwap(old, int64(d)) {
						break
					}
				}
			default:
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(wallStart)
	stopStep()
	<-samplerDone

	hs := reg.Snapshot().Histograms["e2e.seconds"]
	sum := latencySummary{
		P50: hs.Quantile(0.50), P90: hs.Quantile(0.90),
		P99: hs.Quantile(0.99), P999: hs.Quantile(0.999),
		Max: time.Duration(maxLatNanos.Load()).Seconds(),
	}
	if hs.Count > 0 {
		sum.Mean = hs.Sum / float64(hs.Count)
	}
	depthMu.Lock()
	depthsOut := depths
	depthMu.Unlock()
	return &stepReport{
		OfferedRate:    rate,
		AchievedRate:   float64(completed.Load()) / wall.Seconds(),
		Submitted:      submitted.Load(),
		Completed:      completed.Load(),
		Failed:         failed.Load(),
		Rejected429:    rejected.Load(),
		Shed503:        shed.Load(),
		RetryAfterMax:  int(retryAfterMax.Load()),
		LatencySeconds: sum,
		QueueDepth:     depthsOut,
		SLOMet:         completed.Load() > 0 && sum.P99 <= cfg.sloP99.Seconds(),
	}, nil
}

// oneRequest submits a spec and, when admitted, follows the job's SSE
// stream to its terminal event. The returned duration is the full
// client-observed latency: submit → result published.
func oneRequest(client *http.Client, base string, spec *serve.JobSpec) (time.Duration, int, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, 0, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), perRequestTimeout)
	defer cancel()
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/jobs", strings.NewReader(string(body)))
	if err != nil {
		return 0, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	var st serve.JobStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	_ = resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// 429: the queue is full. 503: the server is shedding under
		// storage pressure (disk budget / ENOSPC). Both carry Retry-After
		// and neither is a client error; the caller counts them apart.
		ra := 0
		_, _ = fmt.Sscanf(resp.Header.Get("Retry-After"), "%d", &ra)
		return 0, resp.StatusCode, ra, nil
	case http.StatusAccepted, http.StatusOK:
		if decErr != nil {
			return 0, resp.StatusCode, 0, decErr
		}
	default:
		return 0, resp.StatusCode, 0, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	phase, err := followEvents(ctx, client, base, st.ID)
	if err != nil {
		return 0, resp.StatusCode, 0, err
	}
	if phase != "done" {
		return 0, resp.StatusCode, 0, fmt.Errorf("job %s ended %s", st.ID, phase)
	}
	return time.Since(t0), resp.StatusCode, 0, nil
}

// followEvents reads the job's SSE stream until a terminal event — the
// lowest-latency completion signal the service offers (no poll interval
// inflating measured latency).
func followEvents(ctx context.Context, client *http.Client, base, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	last := ""
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Phase string `json:"phase"`
		}
		if json.Unmarshal([]byte(data), &ev) == nil && ev.Phase != "" {
			last = ev.Phase
			if ev.Phase == "done" || ev.Phase == "failed" {
				return ev.Phase, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	// Stream closed at the terminal phase; trust the last event seen.
	if last == "" {
		return "", errors.New("events stream ended without a terminal event")
	}
	return last, nil
}

// fetchQueueDepth samples serve.queue.depth from /metricz.
func fetchQueueDepth(base string) (float64, bool) {
	resp, err := http.Get(base + "/metricz")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var snap obs.MetricsSnapshot
	if json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return 0, false
	}
	d, ok := snap.Gauges[serve.MetricQueueDepth]
	return d, ok
}

// collectTraces pulls /tracez and folds the retained slowest traces into
// the report: per-trace duration, span aggregation by name, and the
// coverage of the root's direct children — how much of the end-to-end
// latency the trace actually explains.
func collectTraces(cfg *config, base string, rep *loadReport) error {
	resp, err := http.Get(base + "/tracez?format=json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return err
	}
	for _, tr := range snap.Slowest {
		rep.SlowestTraces = append(rep.SlowestTraces, summarizeTrace(tr))
	}
	if cfg.tracezOut != "" {
		f, err := os.Create(cfg.tracezOut)
		if err != nil {
			return err
		}
		werr := snap.WriteChrome(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "iddqload: wrote %s (chrome://tracing)\n", cfg.tracezOut)
	}
	return nil
}

// summarizeTrace renders one TraceRecord for the report.
func summarizeTrace(tr obs.TraceRecord) traceView {
	var rootID uint64
	for _, sp := range tr.Spans {
		if sp.Name == tr.Root && sp.Parent == 0 {
			rootID = sp.Span
		}
	}
	agg := map[string]*spanView{}
	var childSum int64
	for _, sp := range tr.Spans {
		if sp.Span == rootID {
			continue
		}
		v := agg[sp.Name]
		if v == nil {
			v = &spanView{Name: sp.Name}
			agg[sp.Name] = v
		}
		v.Count++
		v.DurationMS += float64(sp.Dur) / 1e6
		if sp.Parent == rootID {
			childSum += sp.Dur
		}
	}
	spans := make([]spanView, 0, len(agg))
	for _, v := range agg {
		spans = append(spans, *v)
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].DurationMS > spans[b].DurationMS })
	cov := 0.0
	if tr.Dur > 0 {
		cov = 100 * float64(childSum) / float64(tr.Dur)
	}
	return traceView{
		Trace: tr.Trace, Root: tr.Root,
		DurationMS:  float64(tr.Dur) / 1e6,
		CoveragePct: cov,
		Spans:       spans,
	}
}

// writeJSON writes v indented to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
