package obs

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func goldenObs() *Obs {
	o := New("r-golden", nil, nil)
	o.Counter("evolution.evaluations").Add(120)
	o.Counter("evolution.generations").Add(15)
	o.Gauge("evolution.best_cost").Set(42.5)
	h := o.Histogram("evolution.eval.seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.02)
	h.Observe(3)
	o.SetStatus(map[string]any{"generation": 15, "best_cost": 42.5})
	return o
}

// TestRunSnapshotGolden pins the on-disk JSON format. Regenerate with:
//
//	go test ./internal/obs -run TestRunSnapshotGolden -update
func TestRunSnapshotGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := NewRunSnapshot(goldenObs(), "c17").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "run_snapshot.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if string(got) != string(want) {
		t.Errorf("snapshot JSON drifted from golden:\n got: %s\nwant: %s", got, want)
	}
}

func TestRunSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := NewRunSnapshot(goldenObs(), "c17").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	s, err := LoadRunSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Run != "r-golden" || s.Circuit != "c17" {
		t.Errorf("identity = %q/%q", s.Run, s.Circuit)
	}
	if s.Metrics.Counters["evolution.evaluations"] != 120 {
		t.Errorf("counters = %v", s.Metrics.Counters)
	}
	hs := s.Metrics.Histograms["evolution.eval.seconds"]
	if want := []uint64{1, 0, 1, 1}; !reflect.DeepEqual(hs.Counts, want) {
		t.Errorf("histogram counts = %v, want %v", hs.Counts, want)
	}
}

func TestLoadRunSnapshotRejectsForeign(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"corrupt.json": `{"format": "iddqsyn-run-snapshot", "version": 1`,
		"format.json":  `{"format": "something-else", "version": 1}`,
		"version.json": `{"format": "iddqsyn-run-snapshot", "version": 999}`,
	}
	for name, content := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadRunSnapshot(p); err == nil {
			t.Errorf("%s: want a load error", name)
		}
	}
	if _, err := LoadRunSnapshot(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file: want a load error")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	if err := NewRunSnapshot(goldenObs(), "c17").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second snapshot: the temp file must be gone and
	// the target valid.
	if err := NewRunSnapshot(goldenObs(), "c17").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
	if _, err := LoadRunSnapshot(path); err != nil {
		t.Errorf("overwritten snapshot unreadable: %v", err)
	}
}

func TestObsNilSafety(t *testing.T) {
	var o *Obs
	if o.Run() != "" || o.Registry() != nil || o.Status() != nil {
		t.Error("nil Obs accessors must return zero values")
	}
	o.SetStatus("x") // no-op, must not panic
	o.Counter("c").Inc()
	o.Gauge("g").Set(1)
	o.Histogram("h", nil).Observe(1)
	s := NewRunSnapshot(o, "c17")
	if s.Run != "" || s.Metrics == nil {
		t.Errorf("snapshot of nil Obs = %+v", s)
	}
}

func TestNewRunIDUnique(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if a == b {
		t.Errorf("consecutive run IDs collide: %s", a)
	}
	if !strings.HasPrefix(a, "r-") {
		t.Errorf("run ID %q missing r- prefix", a)
	}
}

func TestContextCarriage(t *testing.T) {
	if FromContext(nil) != nil {
		t.Error("FromContext(nil) must be nil")
	}
	base := context.Background()
	if FromContext(base) != nil {
		t.Error("plain context must carry no Obs")
	}
	o := New("r-ctx", nil, nil)
	if FromContext(NewContext(base, o)) != o {
		t.Error("context must carry the Obs")
	}
	if NewContext(base, nil) != base {
		t.Error("NewContext with nil Obs must return the context unchanged")
	}
}

// The degraded flag is sticky, nil-safe, and lands in the snapshot — the
// contract the core degradation path relies on to make fallback results
// distinguishable from converged ones.
func TestDegradedFlagInSnapshot(t *testing.T) {
	var nilObs *Obs
	nilObs.SetDegraded("must not panic")
	if d, _ := nilObs.Degraded(); d {
		t.Error("nil Obs reports degraded")
	}

	o := New("r-degraded", nil, nil)
	if d, _ := o.Degraded(); d {
		t.Error("fresh Obs already degraded")
	}
	s := NewRunSnapshot(o, "c17")
	if s.Degraded || s.DegradedReason != "" {
		t.Error("snapshot of a healthy run carries a degraded flag")
	}

	o.SetDegraded("optimizer failed 3 times: injected fault")
	d, reason := o.Degraded()
	if !d || reason != "optimizer failed 3 times: injected fault" {
		t.Errorf("Degraded() = %v, %q", d, reason)
	}
	path := filepath.Join(t.TempDir(), "degraded.json")
	if err := NewRunSnapshot(o, "c17").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRunSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Degraded || loaded.DegradedReason != reason {
		t.Errorf("loaded snapshot degraded = %v/%q, want true/%q",
			loaded.Degraded, loaded.DegradedReason, reason)
	}
}
