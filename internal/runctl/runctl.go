// Package runctl provides the process-level run control shared by the
// iddqsyn binaries: two-stage signal handling (the first SIGINT/SIGTERM
// cancels the run's context so optimizers stop at the next generation
// boundary and persist their state; the second forces an immediate exit)
// and an optional wall-clock deadline. It exists so every long-running
// command gets identical, well-tested semantics instead of hand-rolled
// signal loops.
package runctl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"iddqsyn/internal/obs"
)

// MetricSignals counts the SIGINT/SIGTERM deliveries an observed run
// received (a run that shut down gracefully shows 1 here; 2 means the
// escape hatch fired).
const MetricSignals = "runctl.signals"

// MetricTimeouts counts wall-clock deadlines that fired (0 or 1 per run):
// a run snapshot with this set explains an Interrupted result without
// any signal having been delivered.
const MetricTimeouts = "runctl.timeouts"

// The documented exit codes shared by every iddqsyn binary (iddqpart,
// iddqstudy, iddqserve). A run that ends early for a *controlled* reason
// — the -timeout budget expired, or the first SIGINT/SIGTERM triggered a
// graceful stop — reports that reason in its exit status, distinct from
// a real failure, so wrapping scripts and CI can tell "the budget ran
// out, the best-so-far result is valid" from "the optimizer broke".
const (
	// ExitOK: the run completed.
	ExitOK = 0
	// ExitFailure: a generic failure outside the optimizer run itself
	// (unreadable input, bad library file, snapshot write failure).
	ExitFailure = 1
	// ExitUsage: bad flags or arguments.
	ExitUsage = 2
	// ExitTimeout: the -timeout wall-clock budget expired; long-running
	// commands still report their best-so-far result before exiting.
	ExitTimeout = 3
	// ExitInterrupted: the first SIGINT/SIGTERM stopped the run
	// gracefully (state persisted, best-so-far result reported).
	ExitInterrupted = 4
	// ExitOptimizer: a named optimizer/synthesis failure — every attempt
	// failed with the cause named in the error chain (and degradation,
	// if enabled, also failed).
	ExitOptimizer = 5
)

// ForcedExitCode is the exit status of a hard exit on the second signal
// (128 + SIGINT, the conventional "killed by Ctrl-C" status).
const ForcedExitCode = 130

// ExitCode classifies how a guarded run ended. err is the failure
// returned by the run phase itself (nil on success); cause is
// context.Cause of the run's context after WithTimeout/WithSignals
// composition. Deadline expiry wins over cancellation, cancellation
// wins over a plain failure — an optimizer error provoked by the
// context going away is reported as the timeout/interrupt it is, not as
// an optimizer failure. Setup failures outside the guarded run phase
// are the caller's to map (conventionally ExitFailure/ExitUsage).
func ExitCode(err, cause error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(cause, context.DeadlineExceeded):
		return ExitTimeout
	case errors.Is(err, context.Canceled) || errors.Is(cause, context.Canceled):
		return ExitInterrupted
	case err != nil:
		return ExitOptimizer
	}
	return ExitOK
}

// exit is swapped out by tests; the second signal must never return.
var exit = os.Exit

// WithSignals derives a context that is cancelled by the first SIGINT or
// SIGTERM. A second signal hard-exits the process with ForcedExitCode —
// the escape hatch when graceful shutdown itself hangs. Progress notes
// are written to w (nil silences them). Each delivered signal increments
// MetricSignals in o and is logged as a structured warning, so an
// interrupted run's metrics snapshot records why it stopped; a nil o
// records nothing. The returned stop function releases the signal
// handler and the watcher goroutine; call it as soon as the guarded work
// is done.
func WithSignals(ctx context.Context, w io.Writer, o *obs.Obs) (context.Context, context.CancelFunc) {
	if w == nil {
		w = io.Discard
	}
	signals := o.Counter(MetricSignals)
	log := o.Log()
	ctx, cancel := context.WithCancel(ctx)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			signals.Inc()
			log.Warn("signal received: cancelling run", "signal", sig.String())
			fmt.Fprintf(w, "received %v: finishing the current generation and saving state (signal again to exit immediately)\n", sig)
			cancel()
		case <-done:
			return
		}
		select {
		case sig := <-ch:
			signals.Inc()
			log.Warn("second signal: exiting immediately", "signal", sig.String())
			fmt.Fprintf(w, "received second %v: exiting immediately\n", sig)
			exit(ForcedExitCode)
		case <-done:
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
		cancel()
	}
	return ctx, stop
}

// WithTimeout derives a context with a wall-clock budget; d <= 0 means no
// deadline. It composes with WithSignals: apply the timeout first, then
// the signal handler. When the deadline fires (rather than the run
// finishing first), MetricTimeouts in o is incremented once and a
// structured warning is logged, so a snapshot of an interrupted run
// records why it stopped; a nil o records nothing. The expiry is recorded
// when it happens and at the latest by the returned cancel function, so
// a snapshot taken after cancel holds it.
func WithTimeout(ctx context.Context, d time.Duration, o *obs.Obs) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	var once sync.Once
	record := func() {
		if context.Cause(ctx) == context.DeadlineExceeded {
			once.Do(func() {
				o.Counter(MetricTimeouts).Inc()
				o.Log().Warn("wall-clock budget exhausted: cancelling run", "budget", d.String())
			})
		}
	}
	context.AfterFunc(ctx, record)
	return ctx, func() {
		cancel() // settles the cause: the deadline fired first or it did not
		record()
	}
}
