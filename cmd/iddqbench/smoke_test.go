package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the coordinator's child processes, which re-execute this
// test binary, run as the benchmark.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at a tiny size, end to end and traced,
// through the same command line the benchmark is driven by, and checks the
// result line: every check passed and exactly the catalog's metrics, with
// their units, were reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run(context.Background(), []string{
					"-workload", w.name, "-seed", "1", "-seconds", "1", "-trace", trace,
					"-ops", "1", "-gens", "2",
					"-scratch", dir, "-out", filepath.Join(dir, "result.json"),
				}, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res driverLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v\n%s", lines[len(lines)-1], err, stderr.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, stderr.String())
				}
				defs := catalog(trace == "1")
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, def := range defs {
					if m, ok := res.Metrics[def.Name]; !ok || m.Unit != def.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", def.Name, m, ok, def.Unit)
					}
				}
				if _, err := os.Stat(filepath.Join(dir, "result.json")); err != nil {
					t.Errorf("result file: %v", err)
				}
			})
		}
	}
}

// A directory holding only the benchmark and not the program it measures
// must fail: run.sh cannot build it.
func TestRunScriptFailsWithoutTheProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark")
	}
	dir := t.TempDir()
	copyFile := func(from, to string) {
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile(filepath.Join("..", "..", "BENCHMARK.json"), filepath.Join(dir, "BENCHMARK.json"))
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			copyFile(e.Name(), filepath.Join(dir, "cmd", "iddqbench", e.Name()))
		}
	}
	cmd := exec.Command("bash", "cmd/iddqbench/run.sh", "--workload", "coarse-c1908", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded without the program; stdout %q", out)
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Errorf("run.sh printed a result without the program: %q", out)
	}
}
