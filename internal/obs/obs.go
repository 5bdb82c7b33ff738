// Package obs is the observability substrate of iddqsyn: a lock-cheap
// metrics registry (counters, gauges, fixed-bucket histograms), causal
// trace spans (trace.go), a log/slog logger stamped with the run ID, a
// live introspection HTTP server (expvar, pprof, /runz), and per-run
// metric snapshots that persist next to optimizer checkpoints.
//
// The package is stdlib-only and deliberately nil-tolerant: every method
// on *Obs, *Registry, *Counter, *Gauge, *Histogram, *Tracer and
// *TraceSpan is a no-op on a nil receiver, and Obs.Log never returns
// nil, so instrumented code reads identically whether a run is observed
// or not — no `if obs != nil` at call sites, and the unobserved hot path
// costs one pointer comparison.
//
// An *Obs enters a synthesis explicitly (core.Options.Obs) or on the
// context (NewContext/FromContext); below core the context is the only
// carriage, which lets the optimizers and experiment drivers thread
// telemetry through existing call chains without signature churn. The
// context carriage holds observability plumbing only — never
// request-scoped business state.
package obs

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"sync/atomic"
	"time"
)

// Obs bundles everything one observed run needs: a metrics registry, a
// structured logger stamped with the run ID, and an atomically published
// status value that the /runz introspection endpoint serves live.
type Obs struct {
	run      string
	reg      *Registry
	base     *slog.Logger           // the logger New was given, for Child
	log      *slog.Logger           // base stamped with run
	status   atomic.Value           // latest run status, any JSON-marshalable value
	degraded atomic.Pointer[string] // non-nil once the run entered degraded mode; value = reason
	tracer   atomic.Pointer[Tracer] // nil until SetTracer arms causal tracing
}

// New assembles an Obs for one run. A nil registry gets a fresh one; a
// nil logger discards every record. The run ID is stamped once onto
// every log record as the "run" attribute.
func New(run string, reg *Registry, log *slog.Logger) *Obs {
	if reg == nil {
		reg = NewRegistry()
	}
	o := &Obs{run: run, reg: reg, base: log}
	if log != nil {
		o.log = log.With("run", run)
	}
	return o
}

// Child assembles the Obs of a sub-run (one serve job) over o's registry
// and log output. Its records carry the sub-run's ID as their only "run"
// attribute; status, degradation and tracing start fresh.
func (o *Obs) Child(run string) *Obs {
	if o == nil {
		return New(run, nil, nil)
	}
	return New(run, o.reg, o.base)
}

// Run returns the run ID ("" on a nil Obs).
func (o *Obs) Run() string {
	if o == nil {
		return ""
	}
	return o.run
}

// Registry returns the metrics registry (nil on a nil Obs; the registry's
// methods tolerate that).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Log returns the run's logger, or a logger that discards everything when
// o or its logger is nil — call sites never check.
func (o *Obs) Log() *slog.Logger {
	if o == nil || o.log == nil {
		return discard
	}
	return o.log
}

// discard is the logger of unobserved runs.
var discard = slog.New(discardHandler{})

// discardHandler drops every record. (slog.DiscardHandler is Go 1.24; the
// module targets Go 1.22.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Counter returns the named counter from the run's registry.
func (o *Obs) Counter(name string) *Counter { return o.Registry().Counter(name) }

// Gauge returns the named gauge from the run's registry.
func (o *Obs) Gauge(name string) *Gauge { return o.Registry().Gauge(name) }

// Histogram returns the named histogram from the run's registry.
func (o *Obs) Histogram(name string, bounds []float64) *Histogram {
	return o.Registry().Histogram(name, bounds)
}

// SetStatus atomically publishes the run's live status — the value /runz
// serves. Callers pass a small JSON-marshalable snapshot (e.g. the
// optimizer's current generation and best cost) once per update point.
func (o *Obs) SetStatus(v any) {
	if o == nil || v == nil {
		return
	}
	o.status.Store(v)
}

// Status returns the last value passed to SetStatus (nil if none).
func (o *Obs) Status() any {
	if o == nil {
		return nil
	}
	return o.status.Load()
}

// SetDegraded marks the run as having fallen back to a degraded mode
// (e.g. greedy standard partitioning after repeated optimizer failures),
// recording why. The flag is sticky for the run's lifetime and lands in
// the run snapshot, so a degraded result can never masquerade as a fully
// optimized one.
func (o *Obs) SetDegraded(reason string) {
	if o == nil {
		return
	}
	o.degraded.Store(&reason)
}

// Degraded reports whether SetDegraded was called, and the recorded
// reason. Nil-safe.
func (o *Obs) Degraded() (bool, string) {
	if o == nil {
		return false, ""
	}
	if r := o.degraded.Load(); r != nil {
		return true, *r
	}
	return false, ""
}

// SetTracer arms causal tracing for the run. Tracing is off by default —
// without a tracer every StartRoot/StartChild returns nil and the
// instrumented path costs a pointer comparison. Nil-safe.
func (o *Obs) SetTracer(t *Tracer) {
	if o == nil {
		return
	}
	o.tracer.Store(t)
}

// Tracer returns the run's tracer, or nil when tracing is off. The nil
// result is safe to use directly — every Tracer method tolerates it.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer.Load()
}

// runSeq disambiguates run IDs minted within the same nanosecond.
var runSeq atomic.Uint64

// NewRunID mints a unique, sortable run identifier from the wall clock,
// the process ID and a process-local sequence number. No randomness is
// involved (the determtaint lint bans ambient rand), so IDs are
// reproducible in shape: r-<utc timestamp>-<pid>-<seq>.
func NewRunID() string {
	return fmt.Sprintf("r-%s-%d-%d",
		time.Now().UTC().Format("20060102T150405"), os.Getpid(), runSeq.Add(1))
}

// ctxKey is the private context key for the Obs carriage.
type ctxKey struct{}

// NewContext returns a context carrying o, for call chains that already
// thread a context but not an explicit Obs (the experiment drivers).
func NewContext(ctx context.Context, o *Obs) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, o)
}

// FromContext returns the Obs carried by ctx, or nil. The nil result is
// safe to use directly — every obs method tolerates it.
func FromContext(ctx context.Context) *Obs {
	if ctx == nil {
		return nil
	}
	o, _ := ctx.Value(ctxKey{}).(*Obs)
	return o
}
