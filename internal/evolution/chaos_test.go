// Fault-injection tests of the run-control failure surfaces: truncated
// checkpoints are rejected as ErrCorruptCheckpoint, checkpoint I/O routed
// through a chaos filesystem never corrupts the published file, and
// injected worker faults surface as typed errors the degradation layer
// can recognise.

package evolution

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/fsx"
)

// writeGoodCheckpoint runs a short controlled optimization and returns
// the path of its checkpoint plus the file's bytes.
func writeGoodCheckpoint(t *testing.T) (*partitionEnv, Params, string, []byte) {
	t.Helper()
	env, prm := controlSetup(t)
	ckpt := filepath.Join(t.TempDir(), "good.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runChain(ctx, env.e, env.w, env.cons, prm,
		&Control{CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return env, prm, ckpt, data
}

// A checkpoint cut off at any byte offset — the zero-length file, a single
// byte, or all-but-the-last byte — must load as ErrCorruptCheckpoint with
// the underlying parse failure preserved in the chain, never as a panic or
// a silently-wrong checkpoint.
func TestLoadCheckpointTruncated(t *testing.T) {
	_, _, _, data := writeGoodCheckpoint(t)
	dir := t.TempDir()
	offsets := []int{0, 1, 2, len(data) / 4, len(data) / 2, len(data) - 2, len(data) - 1}
	for _, off := range offsets {
		path := filepath.Join(dir, "trunc.ckpt")
		if err := os.WriteFile(path, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path)
		if err == nil {
			t.Errorf("offset %d/%d: truncated checkpoint loaded without error", off, len(data))
			continue
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("offset %d/%d: error %v does not wrap ErrCorruptCheckpoint", off, len(data), err)
		}
	}
	// The intact file still loads — the guard rejects damage, not data.
	path := filepath.Join(dir, "intact.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err != nil {
		t.Errorf("intact checkpoint rejected: %v", err)
	}
}

// A one-shot disk fault during a periodic checkpoint is absorbed by the
// bounded retry: the run completes, the checkpoint is loadable, and the
// retry is visible in the injector's accounting.
func TestCheckpointRetryMasksInjectedDiskFault(t *testing.T) {
	env, prm := controlSetup(t)
	sched, err := chaos.ParseSchedule("seed=5,after=1,sites=fs.sync")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(sched, nil)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	retried := 0
	ctl := &Control{
		CheckpointPath:  ckpt,
		CheckpointEvery: 5,
		FS:              chaos.NewFS(nil, inj),
		Retry: &fsx.RetryPolicy{
			Attempts: 3,
			Sleep:    func(d time.Duration) {},
			OnRetry:  func(int, error) { retried++ },
		},
	}
	res, err := runChain(context.Background(), env.e, env.w, env.cons, prm, ctl)
	if err != nil {
		t.Fatalf("one-shot disk fault must be retried away, got %v", err)
	}
	if res.Interrupted {
		t.Fatal("run did not complete")
	}
	if retried == 0 || inj.Total() == 0 {
		t.Errorf("fault was never injected/retried (retries=%d, injected=%d)", retried, inj.Total())
	}
	if _, err := LoadCheckpoint(ckpt); err != nil {
		t.Errorf("checkpoint after retried fault unreadable: %v", err)
	}
}

// A persistent disk fault exhausts the retry budget: the run surfaces a
// named ErrInjected-wrapping error, returns the best-so-far result, and
// the previously published checkpoint — if any — is still intact.
func TestCheckpointPersistentDiskFaultSurfaces(t *testing.T) {
	env, prm := controlSetup(t)
	sched, err := chaos.ParseSchedule("seed=5,rate=1,sites=fs.rename")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(sched, nil)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctl := &Control{
		CheckpointPath:  ckpt,
		CheckpointEvery: 5,
		FS:              chaos.NewFS(nil, inj),
		Retry:           &fsx.RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}},
	}
	res, werr := runChain(context.Background(), env.e, env.w, env.cons, prm, ctl)
	if werr == nil {
		t.Fatal("persistent rename failure must surface as an error")
	}
	if !errors.Is(werr, chaos.ErrInjected) {
		t.Errorf("error %v does not wrap chaos.ErrInjected", werr)
	}
	if !strings.Contains(werr.Error(), "attempts") {
		t.Errorf("error %q should name the exhausted attempt budget", werr)
	}
	if res == nil || res.Best == nil {
		t.Error("a failed checkpoint write must still return the in-memory best-so-far result")
	}
	if _, serr := os.Stat(ckpt); !os.IsNotExist(serr) {
		t.Errorf("failed rename published a file anyway: %v", serr)
	}
}

// An injected worker panic is recovered into an error whose chain still
// carries chaos.ErrInjected through the recover boundary — the signal the
// degradation layer keys on.
func TestInjectedWorkerPanicKeepsErrorChain(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(procsName[procs], func(t *testing.T) {
			setProcs(t, procs)
			env, prm := controlSetup(t)
			sched, err := chaos.ParseSchedule("seed=2,after=6,sites=evolution.worker.panic")
			if err != nil {
				t.Fatal(err)
			}
			ctx := chaos.NewContext(context.Background(), chaos.New(sched, nil))
			_, werr := runChain(ctx, env.e, env.w, env.cons, prm, nil)
			if werr == nil {
				t.Fatal("injected worker panic must surface as an error")
			}
			if !errors.Is(werr, chaos.ErrInjected) {
				t.Errorf("recovered error %v lost chaos.ErrInjected from its chain", werr)
			}
			if !strings.Contains(werr.Error(), "panicked") {
				t.Errorf("error %q should say the worker panicked", werr)
			}
		})
	}
}

// A zero-hit schedule (rate=0) must leave the run bit-identical to an
// uninjected one: injection decisions never touch the optimizer's counted
// random stream.
func TestZeroHitScheduleIsBitIdentical(t *testing.T) {
	env, prm := controlSetup(t)
	baseline, err := runChain(context.Background(), env.e, env.w, env.cons, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := chaos.ParseSchedule("seed=1,rate=0,sites=fs.*|evolution.worker.*")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(sched, nil)
	ctl := &Control{FS: chaos.NewFS(nil, inj)}
	injected, err := runChain(chaos.NewContext(context.Background(), inj), env.e, env.w, env.cons, prm, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if injected.BestCost != baseline.BestCost || injected.Evaluations != baseline.Evaluations {
		t.Errorf("zero-hit schedule changed the run: cost %v vs %v, evals %d vs %d",
			injected.BestCost, baseline.BestCost, injected.Evaluations, baseline.Evaluations)
	}
	if inj.Total() != 0 {
		t.Errorf("rate=0 schedule injected %d faults", inj.Total())
	}
}
