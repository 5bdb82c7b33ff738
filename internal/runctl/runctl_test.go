package runctl

import (
	"context"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"iddqsyn/internal/obs"
)

func TestWithTimeoutZeroMeansNoDeadline(t *testing.T) {
	ctx, cancel := WithTimeout(context.Background(), 0, nil)
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero budget must not set a deadline")
	}
	cancel()
	if ctx.Err() == nil {
		t.Error("cancel must still work")
	}
}

func TestWithTimeoutExpires(t *testing.T) {
	ctx, cancel := WithTimeout(context.Background(), 10*time.Millisecond, nil)
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("timeout never fired")
	}
	if ctx.Err() != context.DeadlineExceeded {
		t.Errorf("err = %v, want DeadlineExceeded", ctx.Err())
	}
}

// syncWriter collects the progress notes concurrently written by the
// signal watcher goroutine.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

func TestWithSignalsTwoStage(t *testing.T) {
	exited := make(chan int, 1)
	exit = func(code int) { exited <- code }
	defer func() { exit = os.Exit }()

	var notes syncWriter
	ctx, stop := WithSignals(context.Background(), &notes, nil)
	defer stop()

	// First signal: graceful cancellation.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("first SIGINT did not cancel the context")
	}

	// Second signal: hard exit with the conventional status.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != ForcedExitCode {
			t.Errorf("exit code %d, want %d", code, ForcedExitCode)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second SIGINT did not force an exit")
	}

	out := notes.String()
	if !strings.Contains(out, "finishing the current generation") {
		t.Errorf("first-signal note missing from %q", out)
	}
	if !strings.Contains(out, "exiting immediately") {
		t.Errorf("second-signal note missing from %q", out)
	}
}

func TestWithSignalsStopIsIdempotent(t *testing.T) {
	ctx, stop := WithSignals(context.Background(), nil, nil)
	stop()
	stop() // must not panic (double close)
	if ctx.Err() == nil {
		t.Error("stop must cancel the context")
	}
}

// A fired deadline must be in the run's telemetry once the cancel function
// has returned, whenever the watcher goroutine runs; a run that finishes
// inside its budget must not be.
func TestWithTimeoutObsRecordsExpiry(t *testing.T) {
	o := obs.New("r-timeout", nil, nil)
	ctx, cancel := WithTimeout(context.Background(), time.Millisecond, o)
	<-ctx.Done()
	cancel()
	cancel() // idempotent: the expiry counts once
	if got := o.Counter(MetricTimeouts).Value(); got != 1 {
		t.Errorf("%s = %d after expiry and cancel, want 1", MetricTimeouts, got)
	}

	o2 := obs.New("r-finished", nil, nil)
	ctx2, cancel2 := WithTimeout(context.Background(), time.Hour, o2)
	cancel2()
	<-ctx2.Done()
	time.Sleep(5 * time.Millisecond) // room for a watcher that would miscount
	if got := o2.Counter(MetricTimeouts).Value(); got != 0 {
		t.Errorf("%s = %d for a run cancelled before its deadline, want 0", MetricTimeouts, got)
	}
}
