package fsx

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWriteAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	want := []byte(`{"hello":"world"}`)
	if err := WriteAtomic(nil, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("read back %q, want %q", got, want)
	}
	// Overwrite: the previous content must be fully replaced.
	want2 := []byte(`{"v":2}`)
	if err := WriteAtomic(nil, path, want2); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != string(want2) {
		t.Errorf("after overwrite read %q, want %q", got, want2)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the destination", len(entries))
	}
}

// failFS injects an error on the nth call of one operation, leaving every
// other operation real.
type failFS struct {
	OS
	op    string
	calls int
	at    int
}

func (f *failFS) hit(op string) bool {
	if op != f.op {
		return false
	}
	f.calls++
	return f.calls == f.at
}

func (f *failFS) CreateTemp(dir, pattern string) (File, error) {
	if f.hit("create") {
		return nil, errors.New("injected create failure")
	}
	return f.OS.CreateTemp(dir, pattern)
}

func (f *failFS) Rename(o, n string) error {
	if f.hit("rename") {
		return errors.New("injected rename failure")
	}
	return f.OS.Rename(o, n)
}

func (f *failFS) SyncDir(dir string) error {
	if f.hit("syncdir") {
		return errors.New("injected dir-sync failure")
	}
	return f.OS.SyncDir(dir)
}

func TestWriteAtomicFailureLeavesDestinationIntact(t *testing.T) {
	for _, op := range []string{"create", "rename", "syncdir"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.bin")
			prev := []byte("previous good content")
			if err := os.WriteFile(path, prev, 0o644); err != nil {
				t.Fatal(err)
			}
			err := WriteAtomic(&failFS{op: op, at: 1}, path, []byte("new content"))
			if err == nil {
				t.Fatal("injected failure must surface")
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			// A syncdir failure happens after the rename landed; every
			// earlier failure must leave the previous content visible.
			if op != "syncdir" && string(got) != string(prev) {
				t.Errorf("destination changed to %q on a failed write", got)
			}
			// No orphaned temp files in either case.
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if strings.Contains(e.Name(), ".tmp") {
					t.Errorf("orphaned temp file %s", e.Name())
				}
			}
		})
	}
}

func TestWriteAtomicRetryMasksTransientFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	var retries []int
	var slept []time.Duration
	pol := &RetryPolicy{
		Attempts:  3,
		BaseDelay: time.Millisecond,
		Sleep:     func(d time.Duration) { slept = append(slept, d) },
		OnRetry:   func(attempt int, err error) { retries = append(retries, attempt) },
	}
	err := WriteAtomicRetry(&failFS{op: "rename", at: 1}, path, []byte("ok"), pol)
	if err != nil {
		t.Fatalf("one transient fault under 3 attempts must succeed: %v", err)
	}
	if len(retries) != 1 || retries[0] != 2 {
		t.Errorf("OnRetry calls = %v, want [2]", retries)
	}
	if len(slept) != 1 || slept[0] != time.Millisecond {
		t.Errorf("slept = %v, want [1ms]", slept)
	}
	if got, _ := os.ReadFile(path); string(got) != "ok" {
		t.Errorf("destination = %q after masked fault", got)
	}
}

func TestWriteAtomicRetryExhaustsAndNamesAttempts(t *testing.T) {
	dir := t.TempDir()
	pol := &RetryPolicy{Attempts: 3, BaseDelay: time.Microsecond, Sleep: func(time.Duration) {}}
	// Persistent fault: every create fails.
	fs := &persistentFailFS{}
	path := filepath.Join(dir, "x")
	err := WriteAtomicRetry(fs, path, []byte("x"), pol)
	if err == nil {
		t.Fatal("persistent fault must exhaust the retries")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error %q should name the attempt count", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q should name the path", err)
	}
	if fs.calls != 3 {
		t.Errorf("made %d attempts, want 3", fs.calls)
	}
}

type persistentFailFS struct {
	OS
	calls int
}

func (f *persistentFailFS) CreateTemp(dir, pattern string) (File, error) {
	f.calls++
	return nil, fmt.Errorf("injected persistent failure %d", f.calls)
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	pol := &RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 5 * time.Millisecond}
	if d := pol.backoff(2); d != 2*time.Millisecond {
		t.Errorf("backoff(2) = %v, want 2ms", d)
	}
	if d := pol.backoff(3); d != 4*time.Millisecond {
		t.Errorf("backoff(3) = %v, want 4ms", d)
	}
	if d := pol.backoff(4); d != 5*time.Millisecond {
		t.Errorf("backoff(4) = %v, want the 5ms cap", d)
	}
}

// SweepTemp must remove stranded atomic-write temps (old mtime, or any
// age when olderThan is zero) and must never touch a live temp — one
// young enough that a concurrent WriteAtomic could still be writing it.
func TestSweepTempRemovesStrandedKeepsLive(t *testing.T) {
	dir := t.TempDir()
	stale := time.Now().Add(-time.Hour)
	stranded := []string{"journal.json.tmp123", "result-ab.json.tmp9"}
	for _, name := range stranded {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, stale, stale); err != nil {
			t.Fatal(err)
		}
	}
	live := filepath.Join(dir, "spec-cd.json.tmp42")
	if err := os.WriteFile(live, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, "journal-00000001.seg")
	if err := os.WriteFile(keep, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(keep, stale, stale); err != nil {
		t.Fatal(err)
	}

	removed, err := SweepTemp(nil, dir, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(stranded) {
		t.Fatalf("removed %d temps, want %d", removed, len(stranded))
	}
	for _, name := range stranded {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stranded temp %s survived the sweep", name)
		}
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("live temp removed: %v", err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("non-temp file removed: %v", err)
	}

	// olderThan zero is the startup sweep: no writer can be live, so
	// every temp goes, however young.
	removed, err = SweepTemp(nil, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("startup sweep removed %d, want 1", removed)
	}
	if _, err := os.Stat(live); !errors.Is(err, os.ErrNotExist) {
		t.Error("startup sweep left the remaining temp behind")
	}
}

// OpenAppend must append across separate opens — the journal's active
// segment reopens after every restart.
func TestOpenAppendAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	for _, chunk := range []string{"one", "two"} {
		f, err := OpenAppend(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "onetwo" {
		t.Fatalf("appended content %q, want %q", got, "onetwo")
	}
}
