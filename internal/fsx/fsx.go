// Package fsx is the shared crash-safe file-publication layer of iddqsyn.
// Every durable artifact of a run — optimizer checkpoints, -metrics run
// snapshots, study reports — is published through WriteAtomic, which
// implements the full atomic-write protocol: write a sibling temp file,
// fsync it, close it, rename it over the destination, and fsync the
// directory so the rename itself is durable. A crash at any point leaves
// either the previous file or the new one visible, never a truncated or
// empty hybrid (without the file fsync, ext4-style delayed allocation can
// expose a zero-length destination after a crash; without the directory
// fsync, the rename may be lost entirely).
//
// The protocol runs over a small FS interface instead of package os
// directly, so the chaos fault-injection framework (internal/chaos) can
// interpose short writes, fsync failures and torn renames on exactly the
// operations the protocol depends on. Production code passes nil (the
// real filesystem); nothing else changes.
//
// WriteAtomicRetry adds bounded retry with exponential, optionally
// jittered backoff: the whole WriteAtomic sequence is idempotent (each
// attempt uses a fresh temp file and the destination only changes on a
// completed rename), so transient I/O errors — a full disk being cleaned
// up, a flaky network filesystem — are retried as a unit.
//
// The renameatomic lint analyzer (cmd/iddqlint) flags any os.Rename
// outside this package, so no file-publication path can silently bypass
// the protocol.
package fsx

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// File is the writable temp-file surface WriteAtomic needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem surface of the atomic-write protocol. A nil FS
// everywhere in this package means OS{} — the real filesystem.
type FS interface {
	// CreateTemp creates a new temp file in dir (os.CreateTemp semantics).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file (cleanup of orphaned temp files).
	Remove(name string) error
	// SyncDir makes a completed rename in dir durable (fsync the
	// directory). Filesystems that do not support directory fsync report
	// success.
	SyncDir(dir string) error
}

// AppendFS is the optional append surface of an FS. The segmented job
// journal (internal/serve) appends records to an active segment file
// with an fsync per record — a different durability shape than the
// whole-file atomic-write protocol, but with the same need for fault
// injection, so chaos filesystems implement this too. An FS that does
// not implement AppendFS falls back to the real filesystem.
type AppendFS interface {
	// OpenAppend opens name for appending, creating it (0o644) if needed.
	OpenAppend(name string) (File, error)
}

// OpenAppend opens path for appending through fs when it implements
// AppendFS, and through the real filesystem otherwise.
func OpenAppend(fs FS, path string) (File, error) {
	if a, ok := orOS(fs).(AppendFS); ok {
		return a.OpenAppend(path)
	}
	return OS{}.OpenAppend(path)
}

// OS is the real filesystem.
type OS struct{}

// CreateTemp creates a temp file with os.CreateTemp.
func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// OpenAppend opens with os.OpenFile in append mode.
func (OS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// Rename renames with os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove removes with os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// SyncDir opens dir and fsyncs it, making renames inside it durable.
// Filesystems that refuse directory fsync (EINVAL/ENOTSUP) are treated as
// success — there is nothing more the protocol can do on them.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}

// orOS resolves a nil FS to the real filesystem.
func orOS(fs FS) FS {
	if fs == nil {
		return OS{}
	}
	return fs
}

// WriteAtomic publishes data at path via the crash-safe protocol: temp
// file in the destination directory, write, fsync, close, rename over
// path, fsync the directory. On any error the destination is untouched
// (the previous content, if any, stays visible) and the temp file is
// removed on a best-effort basis.
func WriteAtomic(fs FS, path string, data []byte) error {
	fs = orOS(fs)
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("fsx: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	renamed := false
	defer func() {
		if !renamed {
			_ = fs.Remove(tmpName) // best-effort cleanup; the write error is the one worth reporting
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error is the one worth reporting
		return fmt.Errorf("fsx: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // the sync error is the one worth reporting
		return fmt.Errorf("fsx: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fsx: close %s: %w", path, err)
	}
	if err := fs.Rename(tmpName, path); err != nil {
		return fmt.Errorf("fsx: rename %s over %s: %w", tmpName, path, err)
	}
	renamed = true
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("fsx: sync dir %s: %w", dir, err)
	}
	return nil
}

// Default retry-policy values (see RetryPolicy).
const (
	DefaultAttempts  = 3
	DefaultBaseDelay = 2 * time.Millisecond
	DefaultMaxDelay  = 100 * time.Millisecond
)

// RetryPolicy bounds the retries of WriteAtomicRetry. The zero value (or
// a nil policy) selects the defaults: 3 attempts, exponential backoff
// from 2ms capped at 100ms, no jitter, real sleeps.
type RetryPolicy struct {
	// Attempts is the total number of attempts including the first
	// (<= 0 selects DefaultAttempts).
	Attempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// retry (<= 0 selects DefaultBaseDelay).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (<= 0 selects DefaultMaxDelay).
	MaxDelay time.Duration
	// Jitter, if non-nil, spreads each backoff uniformly over
	// [d/2, 3d/2) to decorrelate concurrent retriers. It is an injected,
	// seeded source (the determtaint lint bans ambient randomness), and
	// it must not be shared across goroutines without the caller's own
	// locking.
	Jitter *rand.Rand
	// Sleep replaces time.Sleep (tests; nil = time.Sleep).
	Sleep func(time.Duration)
	// OnRetry, if non-nil, observes every retry: the attempt about to run
	// (2-based) and the error that failed the previous one.
	OnRetry func(attempt int, err error)
}

func (p *RetryPolicy) attempts() int {
	if p == nil || p.Attempts <= 0 {
		return DefaultAttempts
	}
	return p.Attempts
}

// backoff returns the delay before attempt (2-based: backoff(2) precedes
// the first retry).
func (p *RetryPolicy) backoff(attempt int) time.Duration {
	base, max := DefaultBaseDelay, DefaultMaxDelay
	if p != nil && p.BaseDelay > 0 {
		base = p.BaseDelay
	}
	if p != nil && p.MaxDelay > 0 {
		max = p.MaxDelay
	}
	d := base
	for i := 2; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if p != nil && p.Jitter != nil && d > 0 {
		d = d/2 + time.Duration(p.Jitter.Int63n(int64(d)))
	}
	return d
}

func (p *RetryPolicy) sleep(d time.Duration) {
	if p != nil && p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// SweepTemp removes stranded atomic-write temp files from dir: files
// whose name matches the WriteAtomic temp pattern (*.tmp*) and whose
// modification time is at least olderThan in the past. WriteAtomic
// removes its own temp on failure, but a crash between create and
// rename — or a Remove that itself fails — strands the temp forever;
// startup paths call this with olderThan zero (no concurrent writer can
// exist yet), periodic sweeps pass a conservative age so a temp another
// goroutine is actively writing is never removed. Returns the number of
// temps removed; the error, if any, is the first removal failure (the
// sweep keeps going — one stuck temp must not shield the rest).
func SweepTemp(fs FS, dir string, olderThan time.Duration) (int, error) {
	fs = orOS(fs)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("fsx: sweep %s: %w", dir, err)
	}
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	var first error
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if ok, _ := filepath.Match("*.tmp*", e.Name()); !ok {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue // raced with its own removal
		}
		if olderThan > 0 && info.ModTime().After(cutoff) {
			continue // young enough to be live — leave it
		}
		if rerr := fs.Remove(filepath.Join(dir, e.Name())); rerr != nil {
			if first == nil && !errors.Is(rerr, os.ErrNotExist) {
				first = fmt.Errorf("fsx: sweep %s: %w", dir, rerr)
			}
			continue
		}
		removed++
	}
	return removed, first
}

// Do runs op under the policy's bounded retry (nil receiver = the
// defaults): every error is treated as transient until the attempt
// budget is spent. op must be idempotent-on-failure — each retry re-runs
// it whole. The returned error wraps the last failure and names the
// attempt count. WriteAtomicRetry is Do over WriteAtomic; the segmented
// journal uses Do around its append+fsync sequence, whose failure
// handler truncates the segment back so a retry starts clean.
func (p *RetryPolicy) Do(op func() error) error {
	n := p.attempts()
	var last error
	for attempt := 1; attempt <= n; attempt++ {
		if attempt > 1 {
			if p != nil && p.OnRetry != nil {
				p.OnRetry(attempt, last)
			}
			p.sleep(p.backoff(attempt))
		}
		if last = op(); last == nil {
			return nil
		}
	}
	return fmt.Errorf("fsx: failed after %d attempts: %w", n, last)
}

// WriteAtomicRetry is WriteAtomic with bounded retry: Do over
// WriteAtomic. Every error is treated as transient and the whole
// protocol is re-run (it is idempotent — the destination only ever
// changes on a completed rename). The returned error, after the final
// attempt, names the attempt count and wraps the last failure, which
// names the path.
func WriteAtomicRetry(fs FS, path string, data []byte, pol *RetryPolicy) error {
	return pol.Do(func() error { return WriteAtomic(fs, path, data) })
}
