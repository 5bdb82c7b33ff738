package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/study-all.golden from the current output")

const studyGolden = "testdata/study-all.golden"

// TestStudyAllGolden pins the stdout of the default batch (-study all on
// c432, 120 generations, seed 1) byte for byte. Regenerate with
// `go test ./cmd/iddqstudy -run StudyAllGolden -update`, and only with a
// stated reason: a changed golden means a study's numbers moved.
func TestStudyAllGolden(t *testing.T) {
	var stdout bytes.Buffer
	if code := run(nil, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit status %d, want 0", code)
	}
	if *update {
		if err := os.WriteFile(studyGolden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", studyGolden)
		return
	}
	want, err := os.ReadFile(studyGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout drifted from %s:\ngot\n%s\nwant\n%s", studyGolden, stdout.Bytes(), want)
	}
}

func TestUnknownStudyIsUsageError(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-study", "nope"}, io.Discard, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2 (stderr %q)", code, stderr.String())
	}
}
