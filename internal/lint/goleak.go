package lint

import (
	"iddqsyn/internal/lint/analysis"
)

// GoLeak flags `go` statements with no visible stop path. A goroutine the
// serve layer spawns must be stoppable and awaitable — the crash-safety
// story depends on Shutdown actually draining everything — and the leak
// only shows up as slow memory growth in production, never in a unit test
// that exits before the goroutine matters.
//
// A spawned goroutine counts as accounted-for when the analyzer can see
// any of the conventional lifecycle mechanisms in its body (for a `go
// func(){...}()` literal) or flowing into it (for `go f(args)`):
//
//   - a context.Context reference (cancellation);
//   - a channel operation — send, receive, close, select, or range over a
//     channel (the goroutine blocks on, or is drained through, a channel
//     someone else controls);
//   - a sync.WaitGroup interaction (wg.Done / wg.Wait / passed *WaitGroup).
//
// Anything else is reported. The check is a heuristic, deliberately
// shallow: it looks one call deep at most, because a stop path that is
// not visible near the `go` statement is invisible to the next
// maintainer too. False positives are justified with
// //lint:ignore goleak <reason> — which documents the actual lifecycle.
//
// The `go`-statement discovery itself lives in the call graph's
// goroutine inventory (callGraph.spawns): goleak judges each spawn's
// stop path, sharedstate judges what the spawned goroutines touch, and
// both see the identical site list.
var GoLeak = &analysis.Analyzer{
	Name: "goleak",
	Doc: "flag goroutines with no visible stop path (no context, channel operation, " +
		"or WaitGroup); unstoppable goroutines leak and make graceful shutdown impossible",
	Run: runGoLeak,
}

func runGoLeak(pass *analysis.Pass) (interface{}, error) {
	for _, site := range callGraphOf(pass).spawns {
		if site.Accounted {
			continue
		}
		pass.Reportf(site.Go.Pos(),
			"goroutine has no visible stop path (no context, channel operation, or WaitGroup); "+
				"it cannot be shut down or awaited — thread a context or channel through it, "+
				"or justify with //lint:ignore goleak <reason>")
	}
	return nil, nil
}
