package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"iddqsyn/internal/runctl"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's Table 1 block from the current output")

const (
	experimentsDoc = "../../EXPERIMENTS.md"
	blockBegin     = "<!-- table1 stdout begin: generated by `go test ./cmd/table1 -run ExperimentsBlock -update` -->\n"
	blockEnd       = "<!-- table1 stdout end -->\n"
)

// TestExperimentsBlock runs the command with its defaults (the six Table 1
// circuits, 250 generations, seed 1) and requires its stdout to equal the
// code block between EXPERIMENTS.md's table1 markers byte for byte, so the
// documented table is the one the code produces. It takes ~5 s and is
// skipped under -short. Regenerate the block with
// `go test ./cmd/table1 -run ExperimentsBlock -update`, and only with a
// stated reason: a changed block means a Table 1 figure moved.
func TestExperimentsBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six Table 1 rows (~5 s)")
	}
	var stdout bytes.Buffer
	if code := run(nil, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit status %d, want 0", code)
	}
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	begin := bytes.Index(doc, []byte(blockBegin))
	end := bytes.Index(doc, []byte(blockEnd))
	if begin < 0 || end < begin {
		t.Fatalf("%s has no %q ... %q block", experimentsDoc, blockBegin, blockEnd)
	}
	begin += len(blockBegin)
	want := "```\n" + stdout.String() + "```\n"
	if *update {
		out := append(append(append([]byte(nil), doc[:begin]...), want...), doc[end:]...)
		if err := os.WriteFile(experimentsDoc, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote the Table 1 block of %s", experimentsDoc)
		return
	}
	if got := string(doc[begin:end]); got != want {
		t.Errorf("%s's Table 1 block differs from `go run ./cmd/table1` (regenerate with -update):\ngot\n%s\nwant\n%s", experimentsDoc, got, want)
	}
}

// An expired -timeout must be in the -metrics snapshot. A 1 ns budget has
// run out before the first row starts, and the command releases its
// contexts before it writes the snapshot, so the count does not wait on
// the goroutine that logs the expiry.
func TestTimeoutReachesMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	run([]string{"-timeout", "1ns", "-circuits", "c1908", "-gens", "1", "-metrics", path}, io.Discard, io.Discard)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Metrics.Counters[runctl.MetricTimeouts]; got < 1 {
		t.Errorf("%s = %d in the -metrics snapshot of an expired run, want ≥ 1", runctl.MetricTimeouts, got)
	}
}

// A run the -timeout interrupts prints no table and exits with the
// timeout status: a 1 ns budget has run out before the first row starts,
// so the row's evolution run stops at once.
func TestTimeoutPrintsNoTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-timeout", "1ns", "-circuits", "c1908", "-gens", "1"}, &stdout, &stderr)
	if code != runctl.ExitTimeout {
		t.Errorf("exit status %d, want %d (timeout); stderr %q", code, runctl.ExitTimeout, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("an interrupted run printed\n%s", stdout.String())
	}
}
