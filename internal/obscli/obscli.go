// Package obscli wires the shared observability surface of the iddqsyn
// binaries: the -debug-addr, -metrics, -log-format, -log-level and
// -trace-slowest flags, the per-invocation Obs they configure (a log/slog
// logger and, by default, a causal tracer), the live introspection
// server, and the -metrics run-snapshot file written when the command
// finishes.
// Every binary gets identical flag semantics from one Register/Start/
// Finish triple instead of hand-rolled plumbing.
package obscli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"iddqsyn/internal/obs"
)

// closeTimeout bounds the graceful drain of the debug server at exit.
const closeTimeout = 5 * time.Second

// Config holds the parsed observability flags of one binary.
type Config struct {
	DebugAddr string
	Metrics   string
	LogFormat string
	LogLevel  string

	// TraceSlowest arms causal tracing retaining the K slowest completed
	// traces (0 = tracing off).
	TraceSlowest int

	// Verbose forces debug-level logging (the iddqpart -v shorthand).
	Verbose bool
}

// Register installs the shared observability flags into fs.
func (c *Config) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.DebugAddr, "debug-addr", "",
		"serve live introspection (expvar, pprof, /runz) on this address, e.g. :6060")
	fs.StringVar(&c.Metrics, "metrics", "",
		"write the run's metrics snapshot to this JSON file when the command finishes")
	fs.StringVar(&c.LogFormat, "log-format", "text",
		"structured log encoding: text or json")
	fs.StringVar(&c.LogLevel, "log-level", "warn",
		"structured log threshold: debug, info, warn or error")
	fs.IntVar(&c.TraceSlowest, "trace-slowest", obs.DefaultSlowestTraces,
		"retain the K slowest causal traces (one per synthesis or serve job) for /tracez and the -metrics snapshot (0 disables tracing)")
}

// Run is one observed CLI invocation: the Obs to thread into the flow
// plus the debug server and snapshot file the flags asked for.
type Run struct {
	Obs *obs.Obs

	srv         *obs.Server
	metricsPath string
}

// Start resolves the parsed flags into a live Run: a fresh Obs with a
// minted run ID, a structured logger on w, and — when -debug-addr is set
// — the bound introspection server. Call Finish when the command is done.
func (c *Config) Start(w io.Writer) (*Run, error) {
	h, err := c.handler(w)
	if err != nil {
		return nil, err
	}
	o := obs.New(obs.NewRunID(), nil, slog.New(h))
	if c.TraceSlowest > 0 {
		o.SetTracer(obs.NewTracer(obs.TracerConfig{Slowest: c.TraceSlowest}))
	}
	r := &Run{Obs: o, metricsPath: c.Metrics}
	if c.DebugAddr != "" {
		srv, err := obs.Serve(c.DebugAddr, o)
		if err != nil {
			return nil, err
		}
		r.srv = srv
	}
	return r, nil
}

// handler builds the slog handler -log-format and -log-level select.
func (c *Config) handler(w io.Writer) (slog.Handler, error) {
	lvl, err := parseLevel(c.LogLevel)
	if err != nil {
		return nil, err
	}
	if c.Verbose {
		lvl = slog.LevelDebug
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(c.LogFormat) {
	case "text":
		return slog.NewTextHandler(w, opts), nil
	case "json":
		return slog.NewJSONHandler(w, opts), nil
	}
	return nil, fmt.Errorf("obscli: unknown log format %q (want text or json)", c.LogFormat)
}

// parseLevel resolves a -log-level name, case-insensitively.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obscli: unknown log level %q (want debug, info, warn or error)", s)
}

// Addr returns the debug server's bound address ("" when none runs).
func (r *Run) Addr() string {
	if r == nil {
		return ""
	}
	return r.srv.Addr()
}

// Finish ends the invocation: the -metrics snapshot is written (also for
// failed runs — the telemetry of a failure is evidence) and the debug
// server drains gracefully with a bounded timeout. The first error wins;
// both steps always run.
func (r *Run) Finish(circuit string) error {
	if r == nil {
		return nil
	}
	var firstErr error
	if r.metricsPath != "" {
		if err := obs.NewRunSnapshot(r.Obs, circuit).WriteFile(r.metricsPath); err != nil {
			firstErr = err
		}
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
		defer cancel()
		if err := r.srv.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
