package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/fsx"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partcheck"
)

// newTestServer assembles a served test instance over a temp data dir.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New("test", nil, nil)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// postJSON submits a spec and decodes the response status.
func postJSON(t *testing.T, url string, spec *JobSpec) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &st)
	return resp, st
}

// waitDone polls a job until it leaves the queued/running phases.
func waitDone(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Phase == "done" || st.Phase == "failed" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func getResult(t *testing.T, url, id string) *JobResult {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("result status %d: %s", resp.StatusCode, body)
	}
	res := &JobResult{}
	if err := json.NewDecoder(resp.Body).Decode(res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestServerLifecycle(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2})
	s.Start()
	spec := &JobSpec{Netlist: c17Netlist(t), Generations: 40, Seed: 1}
	resp, st := postJSON(t, hs.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if resp.Header.Get("Location") != "/jobs/"+st.ID {
		t.Fatalf("Location %q for job %s", resp.Header.Get("Location"), st.ID)
	}
	final := waitDone(t, hs.URL, st.ID)
	if final.Phase != "done" {
		t.Fatalf("job ended %s: %s", final.Phase, final.Detail)
	}
	res := getResult(t, hs.URL, st.ID)
	if res.Report == "" || res.Modules < 1 {
		t.Fatalf("thin result: %+v", res)
	}
	// A healthy pipeline must converge the optimizer itself — a silently
	// degraded fallback here would mean the evolution path is broken.
	if res.Degraded {
		t.Fatalf("healthy job degraded: %s", res.DegradedErr)
	}
	if res.Generations == 0 || res.Evaluations == 0 {
		t.Fatalf("no optimizer work recorded: %+v", res)
	}
	// The durable result must hold a structurally valid partition of the
	// submitted circuit — the service's core guarantee.
	c, err := spec.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if r := partcheck.VerifyStructure(c, res.Groups); !r.OK() {
		t.Fatalf("result partition fails the audit: %v", r.Err())
	}

	// Identical resubmission: same content-derived ID, served from cache
	// with 200 (not 202), no second job.
	resp2, st2 := postJSON(t, hs.URL, spec)
	if resp2.StatusCode != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("resubmit: status %d id %s (want 200, %s)", resp2.StatusCode, st2.ID, st.ID)
	}
	// A different tenant label dedupes onto the same job too.
	withTenant := *spec
	withTenant.Tenant = "someone-else"
	resp3, st3 := postJSON(t, hs.URL, &withTenant)
	if resp3.StatusCode != http.StatusOK || st3.ID != st.ID {
		t.Fatalf("cross-tenant resubmit: status %d id %s", resp3.StatusCode, st3.ID)
	}
}

func TestServerRawNetlistSubmit(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	s.Start()
	req, err := http.NewRequest("POST", hs.URL+"/jobs", strings.NewReader(c17Netlist(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Tenant", "curl-user")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("raw submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "curl-user" {
		t.Fatalf("tenant %q, want the X-Tenant header", st.Tenant)
	}
	if got := waitDone(t, hs.URL, st.ID); got.Phase != "done" {
		t.Fatalf("raw-submitted job ended %s: %s", got.Phase, got.Detail)
	}
}

func TestServerBadSpecIs400(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(`{"netlist": ""}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400", resp.StatusCode)
	}
}

// Overload: with no workers draining and a one-slot queue, the second
// distinct submission must be refused with 429 and a Retry-After hint —
// the documented backpressure contract.
func TestServerOverloadReturns429(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueCap: 1}) // Start never called: nothing drains
	a := &JobSpec{Netlist: c17Netlist(t), Generations: 10, Seed: 1}
	b := &JobSpec{Netlist: c17Netlist(t), Generations: 10, Seed: 2}
	if resp, _ := postJSON(t, hs.URL, a); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, _ := postJSON(t, hs.URL, b)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	// A duplicate of the queued job is still a cache hit, not a 429:
	// admission dedupes before it counts capacity.
	if resp, st := postJSON(t, hs.URL, a); resp.StatusCode != http.StatusOK || st.Phase != "queued" {
		t.Fatalf("duplicate under overload: %d phase %s", resp.StatusCode, st.Phase)
	}
}

// SSE: a finished job's event stream opens, delivers its terminal
// status as the first event, and ends.
func TestServerEventsStream(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	s.Start()
	spec := &JobSpec{Netlist: c17Netlist(t), Generations: 30}
	_, st := postJSON(t, hs.URL, spec)
	waitDone(t, hs.URL, st.ID)
	resp, err := http.Get(hs.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body) // terminal job: the stream ends by itself
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(body), "\n\n")
	data, ok := strings.CutPrefix(first, "data: ")
	if !ok {
		t.Fatalf("first frame is not an SSE data frame: %q", first)
	}
	var ev progressEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Job != st.ID || ev.Phase != "done" {
		t.Fatalf("first event %+v", ev)
	}
}

// Restart must never be refused by the admission cap: at crash time the
// journal can hold more unfinished jobs than QueueCap (a full queue
// plus the in-flight ones), so replay bypasses the capacity check.
func TestServerReplayExceedsQueueCap(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Dir: dir, Workers: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		spec := &JobSpec{Netlist: c17Netlist(t), Generations: 10, Seed: int64(i + 1)}
		j, _, err := a.submit(spec, "acme")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.id)
	}
	a.Close() // never started: all three are durably queued

	// The restarted server's cap is smaller than its own backlog —
	// exactly the overload shape under which crashes are most likely.
	b, err := New(Config{Dir: dir, Workers: 1, QueueCap: 1})
	if err != nil {
		t.Fatalf("restart refused its own journal: %v", err)
	}
	defer b.Close()
	b.Start()
	for _, id := range ids {
		j := b.lookup(id)
		if j == nil {
			t.Fatalf("job %s not replayed", id)
		}
		select {
		case <-j.doneCh():
		case <-time.After(30 * time.Second):
			t.Fatalf("replayed job %s never finished", id)
		}
		if st := j.status(); st.Phase != "done" {
			t.Fatalf("replayed job %s ended %s: %s", id, st.Phase, st.Detail)
		}
	}
}

// backoff must tolerate the huge attempt numbers a crash-looping job
// accumulates across restarts: no shift overflow, no jitter panic.
func TestServerBackoffLargeAttemptNoPanic(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Obs: obs.New("test", nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.cancel(errShutdown) // cancelled context: the sleeps return immediately
	for _, attempt := range []int{1, 6, 7, 38, 39, 64, 65, 1 << 20} {
		s.backoff(attempt)
	}
}

// failingResultFS fails every rename that would publish a result side
// file while armed — a transient persistent-storage fault localized to
// results (journal, spec and checkpoint writes stay healthy).
type failingResultFS struct {
	fsx.FS
	fail atomic.Bool
}

func (f *failingResultFS) Rename(oldpath, newpath string) error {
	if f.fail.Load() && strings.Contains(newpath, "result-") {
		return errors.New("injected: result volume offline")
	}
	return f.FS.Rename(oldpath, newpath)
}

// A failed job must not poison the cache forever: once the transient
// cause clears, resubmitting the identical spec re-admits the job with
// a fresh attempt window instead of replaying the stale failure.
func TestServerFailedJobResubmission(t *testing.T) {
	ffs := &failingResultFS{FS: fsx.OS{}}
	ffs.fail.Store(true)
	s, hs := newTestServer(t, Config{
		Workers: 1,
		FS:      ffs,
		Retry:   &fsx.RetryPolicy{Attempts: 2, BaseDelay: 1, MaxDelay: 1},
	})
	s.Start()
	spec := &JobSpec{Netlist: c17Netlist(t), Generations: 20, Seed: 9}
	_, st := postJSON(t, hs.URL, spec)
	if got := waitDone(t, hs.URL, st.ID); got.Phase != "failed" {
		t.Fatalf("job under result-write faults ended %s, want failed", got.Phase)
	}

	// Fault cleared: the identical submission re-runs rather than
	// cache-hitting the failure — 202, same content-derived ID.
	ffs.fail.Store(false)
	resp, st2 := postJSON(t, hs.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit of failed job: status %d, want 202", resp.StatusCode)
	}
	if st2.ID != st.ID {
		t.Fatalf("resubmission changed the job ID: %s vs %s", st2.ID, st.ID)
	}
	final := waitDone(t, hs.URL, st2.ID)
	if final.Phase != "done" {
		t.Fatalf("resubmitted job ended %s: %s", final.Phase, final.Detail)
	}
	if res := getResult(t, hs.URL, st.ID); res.Modules < 1 {
		t.Fatalf("thin result after resubmission: %+v", res)
	}
}

// A finished job drops its spec, netlist included: a done or a failed job
// holds none, in the server that ran it and after a restart, while its
// spec side file stays on disk. The restarted server still serves the
// done job's result, and resubmitting the failed job's spec runs it.
func TestServerFinishedJobsDropSpec(t *testing.T) {
	dir := t.TempDir()
	ffs := &failingResultFS{FS: fsx.OS{}}
	ffs.fail.Store(true)
	a, err := New(Config{
		Dir: dir, Workers: 1, FS: ffs, Obs: obs.New("test", nil, nil),
		Retry: &fsx.RetryPolicy{Attempts: 2, BaseDelay: 1, MaxDelay: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ahs := httptest.NewServer(a.Handler())
	a.Start()
	failing := &JobSpec{Netlist: c17Netlist(t), Generations: 20, Seed: 9}
	_, fst := postJSON(t, ahs.URL, failing)
	if got := waitDone(t, ahs.URL, fst.ID); got.Phase != "failed" {
		t.Fatalf("job under result-write faults ended %s, want failed", got.Phase)
	}
	ffs.fail.Store(false)
	_, dst := postJSON(t, ahs.URL, &JobSpec{Netlist: c17Netlist(t), Generations: 20, Seed: 10})
	if got := waitDone(t, ahs.URL, dst.ID); got.Phase != "done" {
		t.Fatalf("healthy job ended %s: %s", got.Phase, got.Detail)
	}
	for _, id := range []string{fst.ID, dst.ID} {
		if a.lookup(id).jobSpec() != nil {
			t.Errorf("finished job %s still holds its spec", id)
		}
		if _, err := os.Stat(specPath(dir, id)); err != nil {
			t.Errorf("finished job %s: spec side file: %v", id, err)
		}
	}
	ahs.Close()
	a.Close()

	b, bhs := newTestServer(t, Config{Dir: dir, Workers: 1})
	b.Start()
	for _, id := range []string{fst.ID, dst.ID} {
		if j := b.lookup(id); j == nil || j.jobSpec() != nil {
			t.Fatalf("replayed finished job %s missing or holding its spec", id)
		}
	}
	if res := getResult(t, bhs.URL, dst.ID); res.Modules < 1 {
		t.Fatalf("thin result after restart: %+v", res)
	}
	resp, st := postJSON(t, bhs.URL, failing)
	if resp.StatusCode != http.StatusAccepted || st.ID != fst.ID {
		t.Fatalf("resubmit of the failed job after restart: status %d, ID %s, want 202 and %s", resp.StatusCode, st.ID, fst.ID)
	}
	if got := waitDone(t, bhs.URL, st.ID); got.Phase != "done" {
		t.Fatalf("resubmitted job ended %s: %s", got.Phase, got.Detail)
	}
	if b.lookup(st.ID).jobSpec() != nil {
		t.Error("resubmitted job still holds its spec once done")
	}
}

// Restart: a job submitted but never run must survive the process —
// replayed from the journal, re-enqueued, and finished by the next
// server over the same data directory.
func TestServerRestartRunsJournaledJobs(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{Netlist: c17Netlist(t), Generations: 30, Seed: 5}
	j, cached, err := a.submit(spec, "acme")
	if err != nil || cached {
		t.Fatalf("submit: %v cached=%v", err, cached)
	}
	a.Close() // workers never started: the job is durably queued, nothing ran

	b, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rj := b.lookup(j.id)
	if rj == nil || rj.spec == nil {
		t.Fatal("journaled job not replayed into the restarted server")
	}
	if rj.tenant != "acme" {
		t.Fatalf("tenant lost across restart: %q", rj.tenant)
	}
	b.Start()
	select {
	case <-rj.done:
	case <-time.After(30 * time.Second):
		t.Fatal("replayed job never finished")
	}
	if st := rj.status(); st.Phase != "done" {
		t.Fatalf("replayed job ended %s: %s", st.Phase, st.Detail)
	}
	res, err := b.Journal().LoadResult(j.id)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := spec.Circuit()
	if r := partcheck.VerifyStructure(c, res.Groups); !r.OK() {
		t.Fatalf("replayed result fails the audit: %v", r.Err())
	}
}

// A spec side file journaled while specs still carried "workers" is read
// leniently on restart: the replayed job runs to completion.
func TestServerRecoversSpecNamingWorkers(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{Netlist: c17Netlist(t), Generations: 10, Seed: 5}
	j, _, err := a.submit(spec, "acme")
	if err != nil {
		t.Fatal(err)
	}
	a.Close()

	path := specPath(dir, j.id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	fields["workers"] = 2
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rj := b.lookup(j.id)
	if rj == nil || rj.spec == nil {
		t.Fatal("job with a workers field in its spec file not replayed")
	}
	b.Start()
	select {
	case <-rj.done:
	case <-time.After(30 * time.Second):
		t.Fatal("replayed job never finished")
	}
	if st := rj.status(); st.Phase != "done" {
		t.Fatalf("replayed job ended %s: %s", st.Phase, st.Detail)
	}
}

// In-process shutdown/resume equality: stop the server mid-run, reopen
// the data dir, finish the job — the final cost must be bit-identical
// to an uninterrupted run of the same spec, by the evolution package's
// resume guarantee carried through the whole service stack.
func TestServerShutdownResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second double synthesis")
	}
	netlist, err := os.ReadFile("../../benchmarks/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{
		Netlist: string(netlist), ModuleSize: 40,
		Generations: 60, Seed: 3, Timeout: "5m",
	}

	// Reference: the uninterrupted run.
	refDir := t.TempDir()
	ref, err := New(Config{Dir: refDir, Workers: 1, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	refJob, _, err := ref.submit(spec, "ref")
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	select {
	case <-refJob.done:
	case <-time.After(2 * time.Minute):
		t.Fatal("reference run did not finish")
	}
	refRes, err := ref.Journal().LoadResult(refJob.id)
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Interrupted: same spec, shut the server down mid-optimization.
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir, Workers: 1, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	j1, _, err := s1.submit(spec, "acme")
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	deadline := time.Now().Add(time.Minute)
	for {
		j1.mu.Lock()
		gen := j1.gen
		j1.mu.Unlock()
		if gen >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached generation 5")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s1.Close() // interrupts at a generation boundary, persists the checkpoint

	s2, err := New(Config{Dir: dir, Workers: 1, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j2 := s2.lookup(j1.id)
	if j2 == nil {
		t.Fatal("interrupted job not replayed")
	}
	s2.Start()
	select {
	case <-j2.done:
	case <-time.After(2 * time.Minute):
		t.Fatal("resumed job did not finish")
	}
	res, err := s2.Journal().LoadResult(j1.id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != refRes.Cost || res.Generations != refRes.Generations ||
		res.Evaluations != refRes.Evaluations {
		t.Fatalf("resumed run diverged: cost %v/%v gens %d/%d evals %d/%d",
			res.Cost, refRes.Cost, res.Generations, refRes.Generations,
			res.Evaluations, refRes.Evaluations)
	}
	if res.Report != refRes.Report {
		t.Fatal("resumed run's report differs from the uninterrupted reference")
	}
}

// A job whose own wall-clock budget expires still finishes durably —
// best-so-far, audit-clean, and loudly marked timed_out.
func TestServerJobTimeoutFinishesBestSoFar(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second synthesis")
	}
	netlist, err := os.ReadFile("../../benchmarks/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{Workers: 1})
	s.Start()
	spec := &JobSpec{
		Netlist: string(netlist), ModuleSize: 40,
		Generations: 400, Seed: 3, Timeout: "1ms",
	}
	_, st := postJSON(t, hs.URL, spec)
	final := waitDone(t, hs.URL, st.ID)
	if final.Phase != "done" {
		t.Fatalf("timed-out job ended %s: %s", final.Phase, final.Detail)
	}
	res := getResult(t, hs.URL, st.ID)
	if !res.TimedOut {
		t.Fatalf("expired budget not marked: %+v", res)
	}
	c, _ := spec.Circuit()
	if r := partcheck.VerifyStructure(c, res.Groups); !r.OK() {
		t.Fatalf("best-so-far result fails the audit: %v", r.Err())
	}
}

// Concurrent smoke load: distinct jobs from several tenants at once,
// all finishing valid. Run under -race in CI.
func TestServeConcurrentLoad(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 4, QueueCap: 32})
	s.Start()
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := &JobSpec{
				Netlist: c17Netlist(t), Generations: 30,
				Seed: int64(i + 1), Tenant: fmt.Sprintf("tenant-%d", i%3),
			}
			body, _ := json.Marshal(spec)
			resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(string(body)))
			if err != nil {
				errs <- err
				return
			}
			var st JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			_ = resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			deadline := time.Now().Add(time.Minute)
			for time.Now().Before(deadline) {
				r2, err := http.Get(hs.URL + "/jobs/" + st.ID)
				if err != nil {
					errs <- err
					return
				}
				var cur JobStatus
				err = json.NewDecoder(r2.Body).Decode(&cur)
				_ = r2.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				switch cur.Phase {
				case "done":
					return
				case "failed":
					errs <- fmt.Errorf("job %s failed: %s", st.ID, cur.Detail)
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			errs <- fmt.Errorf("job %s never finished", st.ID)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The journal recorded every submission.
	if got := s.Journal().Len(); got < n*2 {
		t.Fatalf("journal has %d records for %d jobs", got, n)
	}
}

func TestServerIntrospectionEndpoints(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	s.Start()
	spec := &JobSpec{Netlist: c17Netlist(t), Generations: 20}
	_, st := postJSON(t, hs.URL, spec)
	waitDone(t, hs.URL, st.ID)
	for _, path := range []string{"/jobz", "/healthz", "/metricz", "/debug/vars", "/"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("%s: empty body", path)
		}
	}
	resp, err := http.Get(hs.URL + "/jobz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("jobz: %+v", jobs)
	}
	// The metrics registry counted the lifecycle.
	if s.o.Counter(MetricSubmitted).Value() != 1 || s.o.Counter(MetricFinished).Value() != 1 {
		t.Fatalf("metrics: submitted=%d finished=%d",
			s.o.Counter(MetricSubmitted).Value(), s.o.Counter(MetricFinished).Value())
	}
}

// A traced job must leave behind a complete causal trace — queue wait,
// attempt, the core phases and per-generation evolution spans all under
// one root — plus the queue-wait histogram and per-tenant admission
// counters, all visible over the HTTP surface.
func TestServerTracingAndQueueMetrics(t *testing.T) {
	o := obs.New("test", nil, nil)
	o.SetTracer(obs.NewTracer(obs.TracerConfig{}))
	s, hs := newTestServer(t, Config{Workers: 1, Obs: o})
	s.Start()
	spec := &JobSpec{Netlist: c17Netlist(t), Generations: 20, Tenant: "acme"}
	_, st := postJSON(t, hs.URL, spec)
	if final := waitDone(t, hs.URL, st.ID); final.Phase != "done" {
		t.Fatalf("job phase %q: %s", final.Phase, final.Detail)
	}

	// Queue-wait histogram observed the claim; per-tenant admit counted.
	if n := s.o.Histogram(MetricQueueWait, nil).Count(); n != 1 {
		t.Errorf("%s count = %d, want 1", MetricQueueWait, n)
	}
	if n := s.o.Counter("serve.tenant.acme.admitted").Value(); n != 1 {
		t.Errorf("serve.tenant.acme.admitted = %d, want 1", n)
	}

	// /metricz renders quantiles for the wait histogram.
	resp, err := http.Get(hs.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Quantiles[MetricQueueWait]; !ok {
		t.Errorf("/metricz quantiles missing %s: %v", MetricQueueWait, snap.Quantiles)
	}

	// /tracez retains the job's trace with the full span decomposition.
	resp, err = http.Get(hs.URL + "/tracez?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var ts obs.TraceSnapshot
	err = json.NewDecoder(resp.Body).Decode(&ts)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Slowest) != 1 {
		t.Fatalf("retained traces = %d, want 1", len(ts.Slowest))
	}
	tr := ts.Slowest[0]
	if tr.Root != "serve.job" {
		t.Fatalf("trace root = %q, want serve.job", tr.Root)
	}
	names := map[string]bool{}
	var rootID uint64
	var childSum int64
	for _, sp := range tr.Spans {
		names[sp.Name] = true
		if sp.Name == "serve.job" {
			rootID = sp.Span
		}
	}
	for _, want := range []string{"serve.admit", "queue.wait", "serve.attempt",
		"serve.publish", "core.annotate", "core.optimize", "core.audit", "core.chip",
		"evolution.evaluate", "evolution.select"} {
		if !names[want] {
			t.Errorf("trace is missing span %q (have %v)", want, names)
		}
	}
	for _, sp := range tr.Spans {
		if sp.Parent == rootID {
			childSum += sp.Dur
		}
	}
	// The root's direct children (admit, queue wait, attempts, publish)
	// must account for essentially all of the end-to-end latency — the
	// "where did the millisecond go" property.
	if childSum < tr.Dur*8/10 {
		t.Errorf("direct children cover %d of %d ns (%.0f%%), want >= 80%%",
			childSum, tr.Dur, 100*float64(childSum)/float64(tr.Dur))
	}

	// A rejected submission ticks the tenant's rejected counter.
	full, fhs := newTestServer(t, Config{Workers: 1, QueueCap: 1}) // Start never called: nothing drains
	_, _ = postJSON(t, fhs.URL, &JobSpec{Netlist: c17Netlist(t), Generations: 20, Tenant: "acme"})
	rr, _ := postJSON(t, fhs.URL, &JobSpec{Netlist: c17Netlist(t), Generations: 21, Tenant: "acme"})
	if rr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d, want 429", rr.StatusCode)
	}
	if n := full.o.Counter("serve.tenant.acme.rejected").Value(); n != 1 {
		t.Errorf("serve.tenant.acme.rejected = %d, want 1", n)
	}
}

func TestTenantLabel(t *testing.T) {
	cases := map[string]string{
		"acme":                  "acme",
		"tenant-1_b":            "tenant-1_b",
		"":                      "other",
		"has space":             "other",
		"dots.are.bad":          "other",
		"unicode-é":             "other",
		strings.Repeat("a", 33): "other",
	}
	for in, want := range cases {
		if got := tenantLabel(in); got != want {
			t.Errorf("tenantLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// Chaos survival: a one-shot worker panic and a one-shot estimator NaN
// must be absorbed by the retry machinery — the job still converges to
// a valid, durable result.
func TestServerSurvivesInjectedFaults(t *testing.T) {
	sched, err := chaos.ParseSchedule("seed=1,after=3,sites=evolution.worker.panic|estimate.nan")
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New("chaos-test", nil, nil)
	s, hs := newTestServer(t, Config{Workers: 1, Obs: o, Chaos: chaos.New(sched, o)})
	s.Start()
	spec := &JobSpec{Netlist: c17Netlist(t), Generations: 40}
	_, st := postJSON(t, hs.URL, spec)
	final := waitDone(t, hs.URL, st.ID)
	if final.Phase != "done" {
		t.Fatalf("job under injected faults ended %s: %s", final.Phase, final.Detail)
	}
	res := getResult(t, hs.URL, st.ID)
	c, _ := spec.Circuit()
	if r := partcheck.VerifyStructure(c, res.Groups); !r.OK() {
		t.Fatalf("chaos-survived result fails the audit: %v", r.Err())
	}
}
