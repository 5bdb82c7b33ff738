// Package obs is the observability substrate of iddqsyn: a lock-cheap
// metrics registry (counters, gauges, fixed-bucket histograms), a
// structured leveled event logger with per-run IDs and nested timing
// spans, a live introspection HTTP server (expvar, pprof, /runz), and
// per-run metric snapshots that persist next to optimizer checkpoints.
//
// The package is stdlib-only and deliberately nil-tolerant: every method
// on *Obs, *Logger, *Registry, *Counter, *Gauge, *Histogram and *Span is
// a no-op on a nil receiver, so instrumented code reads identically
// whether a run is observed or not — no `if obs != nil` at call sites,
// and the unobserved hot path costs one pointer comparison.
//
// An *Obs enters a synthesis explicitly (core.Options.Obs) or on the
// context (NewContext/FromContext); below core the context is the only
// carriage, which lets the optimizers and experiment drivers thread
// telemetry through existing call chains without signature churn. The context carriage holds observability
// plumbing only — never request-scoped business state.
package obs

import (
	"context"
	"fmt"
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
	log      *Logger
	status   atomic.Value           // latest run status, any JSON-marshalable value
	degraded atomic.Pointer[string] // non-nil once the run entered degraded mode; value = reason
	tracer   atomic.Pointer[Tracer] // nil until SetTracer arms causal tracing
}

// New assembles an Obs for one run. A nil registry gets a fresh one; a
// nil logger stays nil (logging methods are no-ops). The run ID is
// stamped onto every log record.
func New(run string, reg *Registry, log *Logger) *Obs {
	if reg == nil {
		reg = NewRegistry()
	}
	o := &Obs{run: run, reg: reg, log: log.WithRun(run)}
	return o
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

// Log returns the structured logger (nil on a nil Obs; the logger's
// methods tolerate that).
func (o *Obs) Log() *Logger {
	if o == nil {
		return nil
	}
	return o.log
}

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
// involved (the norandglobal lint bans ambient rand), so IDs are
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
