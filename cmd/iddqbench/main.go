// Command iddqbench is the repository's benchmark: five workloads that
// drive the optimizer, Table 1 and the serving path through their public
// entry points, measure end-to-end numbers with tracing off, derive
// per-layer numbers from a separate traced run, and check every output.
//
// Usage (from the repository root):
//
//	bash cmd/iddqbench/run.sh -seed 1                  every workload, end to end
//	bash cmd/iddqbench/run.sh -seed 1 -trace 1         every workload, per layer
//	bash cmd/iddqbench/run.sh -workload fine-c7552 -seed 3 -seconds 20 -trace 0
//	bash cmd/iddqbench/run.sh -compare A1.json A2.json -- B1.json B2.json
//
// Each workload runs in child processes of its own: two that only set up
// (process start, inputs, one untimed warm-up op) and one that sets up and
// then measures, so set-up time is a median of three. With -workload the
// last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; a result file with each
// metric's sample summary, the checks and the machine goes to -out. The exit
// status is 0 when every check passed, 1 when one failed or a run broke,
// and 2 on bad usage. README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a process started by the coordinator; a test binary uses
// it to run as the benchmark instead of as tests.
const childEnv = "IDDQBENCH_CHILD"

// runBudget bounds one workload's coordinator, children included.
const runBudget = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ops      int
	gens     int
	out      string
	scratch  string
	role     string
}

func (c *config) generations(w *workload) int {
	if c.gens > 0 {
		return c.gens
	}
	return w.gens
}

func (c *config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// more reports whether the measured loop runs op i.
func (c *config) more(w *workload, i int, start time.Time) bool {
	if c.ops > 0 {
		return i < c.ops
	}
	return i < w.minOps || time.Since(start) < c.window()
}

// tracedOps is the number of ops a traced optimizer run observes.
func (c *config) tracedOps() int {
	if c.ops > 0 {
		return c.ops
	}
	return 3
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iddqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "run one workload (default: every workload in turn)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload inputs derive from")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured time per workload, seconds")
	fs.IntVar(&trace, "trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.IntVar(&cfg.ops, "ops", 0, "run exactly this many timed ops instead of filling -seconds (smoke tests)")
	fs.IntVar(&cfg.gens, "gens", 0, "override the workload's generation budget (smoke tests)")
	fs.StringVar(&cfg.out, "out", "", "result file (default .bench_build/results/iddqbench-<workload>-seed<n>[-trace].json)")
	fs.StringVar(&cfg.scratch, "scratch", filepath.Join(".bench_build", "tmp"), "directory for the serve workloads' data directories")
	fs.BoolVar(&compare, "compare", false, "compare result files: -compare A.json… -- B.json…")
	fs.StringVar(&cfg.role, "role", "", "internal: setup or measure, for the coordinator's child processes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds < 1 || cfg.ops < 0 || cfg.gens < 0 {
		fmt.Fprintln(stderr, "iddqbench: bad usage; see -h")
		return 2
	}
	var selected []*workload
	if cfg.workload == "" {
		selected = workloads
	} else if w := findWorkload(cfg.workload); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "iddqbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "iddqbench:", err)
		return 1
	}
	if cfg.role != "" {
		if err := runChild(ctx, &cfg, selected[0], stdout); err != nil {
			fmt.Fprintf(stderr, "iddqbench: %s %s: %v\n", selected[0].name, cfg.role, err)
			return 1
		}
		return 0
	}

	rf := runFile{
		Format: "iddqbench-result", Version: 1, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Machine: machineInfo(),
	}
	for _, w := range selected {
		res := coordinate(ctx, &cfg, w, stderr)
		rf.Workloads = append(rf.Workloads, res)
		printTable(stderr, &cfg, res)
	}
	path := cfg.out
	if path == "" {
		name := "all"
		if cfg.workload != "" {
			name = cfg.workload
		}
		suffix := ""
		if cfg.trace {
			suffix = "-trace"
		}
		path = filepath.Join(".bench_build", "results", fmt.Sprintf("iddqbench-%s-seed%d%s.json", name, cfg.seed, suffix))
	}
	if err := writeJSONFile(path, rf); err != nil {
		fmt.Fprintln(stderr, "iddqbench:", err)
		return 1
	}
	fmt.Fprintln(stderr, "iddqbench: wrote", path)

	line := driverLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, res := range rf.Workloads {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(rf.Workloads) > 1 {
				name = res.Name + "." + name
			}
			line.Metrics[name] = valueUnit{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "iddqbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// runner is one workload's program under test inside a child process.
type runner interface {
	warmup(ctx context.Context) (string, error) // the untimed op ending set-up; returns its result fingerprint
	measure(ctx context.Context) (*report, error)
	trace(ctx context.Context) (*report, error)
	close()
}

func newRunner(cfg *config, w *workload) (runner, error) {
	if w.kind == kindServe || w.kind == kindServeHit {
		return newServeRunner(cfg, w)
	}
	return newSynthRunner(cfg, w)
}

// childMsg is one line a child writes to its coordinator.
type childMsg struct {
	Ready  *string `json:"ready,omitempty"` // set-up done; the warm-up result's fingerprint
	Report *report `json:"report,omitempty"`
}

// runChild sets up, reports ready, and (as the measuring child) runs the
// measured or traced loop and reports its result.
func runChild(ctx context.Context, cfg *config, w *workload, stdout io.Writer) error {
	r, err := newRunner(cfg, w)
	if err != nil {
		return err
	}
	defer r.close()
	fp, err := r.warmup(ctx)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(childMsg{Ready: &fp}); err != nil {
		return err
	}
	if cfg.role == "setup" {
		return nil
	}
	measure := r.measure
	if cfg.trace {
		measure = r.trace
	}
	rep, err := measure(ctx)
	if err != nil {
		return err
	}
	return enc.Encode(childMsg{Report: rep})
}

// coordinate runs one workload's children and assembles its result.
func coordinate(ctx context.Context, cfg *config, w *workload, stderr io.Writer) workloadResult {
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	roles := []string{"setup", "setup", "measure"}
	if cfg.trace {
		roles = roles[2:]
	}
	rep := newReport()
	var setups []float64
	var fps []string
	for _, role := range roles {
		setup, fp, r, err := spawnChild(ctx, cfg, w, role, stderr)
		if err != nil {
			rep.fail("child process", fmt.Sprintf("%s: %v", role, err))
			break
		}
		setups = append(setups, setup.Seconds())
		fps = append(fps, fp)
		if r != nil {
			rep.merge(r)
		}
	}
	if len(fps) > 1 {
		same := true
		for _, fp := range fps {
			same = same && fp == fps[0]
		}
		rep.verify("determinism: warm-up identical in every process", same, strings.Join(fps, " "))
	}
	if !cfg.trace && len(setups) > 0 {
		rep.set("setup_s", quantile(setups, 0.5), setups)
	}
	return assemble(cfg, w, rep)
}

// spawnChild starts this program as a child in the given role and returns
// the time from start to its ready line, the warm-up fingerprint, and the
// measuring child's report.
func spawnChild(ctx context.Context, cfg *config, w *workload, role string, stderr io.Writer) (time.Duration, string, *report, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, "", nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-role", role, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace,
		"-ops", strconv.Itoa(cfg.ops), "-gens", strconv.Itoa(cfg.gens), "-scratch", cfg.scratch)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, "", nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, "", nil, err
	}
	setup, fp, rep, readErr := readChild(out, start)
	if err := cmd.Wait(); err != nil {
		return 0, "", nil, fmt.Errorf("child exited: %w", err)
	}
	switch {
	case readErr != nil:
		return 0, "", nil, readErr
	case fp == "":
		return 0, "", nil, errors.New("child never reported set-up done")
	case role == "measure" && rep == nil:
		return 0, "", nil, errors.New("child reported no result")
	}
	return setup, fp, rep, nil
}

// readChild reads a child's messages until it closes its output, timing
// the ready line from start. Killing the child on cancellation ends it.
func readChild(out io.Reader, start time.Time) (time.Duration, string, *report, error) {
	var setup time.Duration
	var fp string
	var rep *report
	var readErr error
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 1<<20), 256<<20)
	for sc.Scan() {
		var msg childMsg
		if err := json.Unmarshal(sc.Bytes(), &msg); err != nil {
			readErr = fmt.Errorf("unreadable child output: %w", err)
			continue
		}
		if msg.Ready != nil {
			setup, fp = time.Since(start), *msg.Ready
		}
		if msg.Report != nil {
			rep = msg.Report
		}
	}
	if err := sc.Err(); err != nil && readErr == nil {
		readErr = err
		_, _ = io.Copy(io.Discard, out) // let the child finish writing and exit
	}
	return setup, fp, rep, readErr
}

// report is what a workload's run found: ops attempted and failed, the
// checks with their pass/fail counts, and each metric's value with the
// samples behind it.
type report struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Checks    []*checkStat         `json:"checks"`
	Metrics   map[string]sampleSet `json:"metrics"`
}

type checkStat struct {
	Name   string `json:"name"`
	Passed int    `json:"passed"`
	Failed int    `json:"failed"`
	Detail string `json:"detail,omitempty"` // the first failure
}

type sampleSet struct {
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
}

func newReport() *report { return &report{Metrics: map[string]sampleSet{}} }

// check records one outcome of the named check and returns ok. It does not
// count toward attempted/failed: per-op checks fail their op instead.
func (r *report) check(name string, ok bool, detail string) bool {
	if ok {
		r.tally(checkStat{Name: name, Passed: 1})
	} else {
		r.tally(checkStat{Name: name, Failed: 1, Detail: detail})
	}
	return ok
}

// tally adds outcomes to the named check, keeping its first failure.
func (r *report) tally(c checkStat) {
	var cs *checkStat
	for _, have := range r.Checks {
		if have.Name == c.Name {
			cs = have
		}
	}
	if cs == nil {
		cs = &checkStat{Name: c.Name}
		r.Checks = append(r.Checks, cs)
	}
	if cs.Failed == 0 {
		cs.Detail = c.Detail
	}
	cs.Passed += c.Passed
	cs.Failed += c.Failed
}

// verify records a run-level check, which counts as one attempted
// operation that failed unless ok.
func (r *report) verify(name string, ok bool, detail string) bool {
	r.Attempted++
	if !r.check(name, ok, detail) {
		r.Failed++
	}
	return ok
}

// fail records an op that broke before its checks could run.
func (r *report) fail(name, detail string) {
	r.Failed++
	r.check(name, false, detail)
}

// set records a metric; a NaN or infinite value is left out, which
// assemble then reports as a metric the run failed to produce.
func (r *report) set(name string, v float64, samples []float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Metrics[name] = sampleSet{Value: v, Samples: samples}
}

func (r *report) setAll(m map[string]float64) {
	for k, v := range m {
		r.set(k, v, nil)
	}
}

func (r *report) merge(o *report) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for _, c := range o.Checks {
		r.tally(*c)
	}
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
}

// workloadResult is one workload's entry in the result file.
type workloadResult struct {
	Name      string               `json:"name"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Checks    []*checkStat         `json:"checks"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
}

// assemble keeps exactly the catalog's metrics, with units and sample
// summaries; a metric the run did not produce, or produced as NaN or
// infinity, fails the run.
func assemble(cfg *config, w *workload, rep *report) workloadResult {
	out := map[string]metricOut{}
	for _, def := range catalog(cfg.trace) {
		s, ok := rep.Metrics[def.Name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			rep.verify("every metric produced", false, def.Name)
			continue
		}
		sum := summarize(s.Samples)
		if sum.N == 0 {
			sum = summary{N: 1, Median: s.Value, P25: s.Value, P75: s.Value, Min: s.Value, Max: s.Value}
		}
		out[def.Name] = metricOut{Value: s.Value, Unit: def.Unit, summary: sum}
	}
	if rep.Attempted == 0 {
		rep.fail("ops attempted", "no op ran")
		rep.Attempted = 1
	}
	return workloadResult{
		Name: w.name, Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Checks: rep.Checks, Metrics: out,
	}
}

// driverLine is the last line of standard output.
type driverLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runFile is the result file: one run of one or every workload.
type runFile struct {
	Format    string           `json:"format"`
	Version   int              `json:"version"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Machine   machine          `json:"machine"`
	Workloads []workloadResult `json:"workloads"`
}

type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

func machineInfo() machine {
	m := machine{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, Revision: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	return m
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func printTable(w io.Writer, cfg *config, res workloadResult) {
	verdict := "correct"
	if !res.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "iddqbench %s seed %d: %s, %d attempted, %d failed\n",
		res.Name, cfg.seed, verdict, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%-6d p25 %.6g  p75 %.6g\n", name, m.Value, m.Unit, m.N, m.P25, m.P75)
	}
	for _, c := range res.Checks {
		status := "ok"
		if c.Failed > 0 {
			status = "FAIL: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-58s %d/%d %s\n", c.Name, c.Passed, c.Passed+c.Failed, status)
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
