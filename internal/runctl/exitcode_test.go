package runctl

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// The exit-code contract of every iddqsyn binary: -timeout expiry, a
// graceful SIGINT/SIGTERM stop, and a named optimizer failure each map
// to their own documented status.
func TestExitCodeTable(t *testing.T) {
	optFail := errors.New("evolution: cost evaluation panicked")
	cases := []struct {
		name  string
		err   error
		cause error
		want  int
	}{
		{"clean run", nil, nil, ExitOK},
		{"timeout, best-so-far reported", nil, context.DeadlineExceeded, ExitTimeout},
		{"interrupt, best-so-far reported", nil, context.Canceled, ExitInterrupted},
		{"named optimizer failure", optFail, nil, ExitOptimizer},
		{"wrapped optimizer failure", fmt.Errorf("core: %w", optFail), nil, ExitOptimizer},
		{"deadline surfaced through the error chain", fmt.Errorf("core: %w", context.DeadlineExceeded), nil, ExitTimeout},
		{"cancellation surfaced through the error chain", fmt.Errorf("core: %w", context.Canceled), nil, ExitInterrupted},
		{"timeout wins over a provoked failure", optFail, context.DeadlineExceeded, ExitTimeout},
		{"interrupt wins over a provoked failure", optFail, context.Canceled, ExitInterrupted},
		{"timeout wins over interrupt classification", fmt.Errorf("x: %w", context.Canceled), context.DeadlineExceeded, ExitTimeout},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err, tc.cause); got != tc.want {
			t.Errorf("%s: ExitCode(%v, %v) = %d, want %d", tc.name, tc.err, tc.cause, got, tc.want)
		}
	}
}

// The codes themselves are part of the CLI contract; a renumbering is a
// breaking change and must be deliberate.
func TestExitCodeValuesAreStable(t *testing.T) {
	want := map[string]int{
		"ExitOK": 0, "ExitFailure": 1, "ExitUsage": 2,
		"ExitTimeout": 3, "ExitInterrupted": 4, "ExitOptimizer": 5,
		"ForcedExitCode": 130,
	}
	got := map[string]int{
		"ExitOK": ExitOK, "ExitFailure": ExitFailure, "ExitUsage": ExitUsage,
		"ExitTimeout": ExitTimeout, "ExitInterrupted": ExitInterrupted,
		"ExitOptimizer": ExitOptimizer, "ForcedExitCode": ForcedExitCode,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
}

// ExitCode composes with the real WithTimeout plumbing: an expired
// budget classifies as ExitTimeout via context.Cause.
func TestExitCodeFromExpiredTimeout(t *testing.T) {
	ctx, cancel := WithTimeout(context.Background(), 1, nil)
	defer cancel()
	<-ctx.Done()
	if got := ExitCode(nil, context.Cause(ctx)); got != ExitTimeout {
		t.Fatalf("expired -timeout classified as %d, want %d", got, ExitTimeout)
	}
}
