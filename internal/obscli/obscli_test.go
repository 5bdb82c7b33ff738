package obscli

import (
	"encoding/json"
	"flag"
	"strings"
	"testing"
)

// start parses args into a fresh Config and starts its Run, logging to b.
func start(t *testing.T, b *strings.Builder, args ...string) *Run {
	t.Helper()
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	r, err := c.Start(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := r.Finish("test"); err != nil {
			t.Error(err)
		}
	})
	return r
}

func TestLoggerJSON(t *testing.T) {
	var b strings.Builder
	r := start(t, &b, "-log-format", "json", "-log-level", "debug")
	r.Obs.Log().Debug("stalled", "gen", 9)
	var m map[string]any
	if err := json.Unmarshal([]byte(b.String()), &m); err != nil {
		t.Fatalf("record %q is not one JSON object: %v", b.String(), err)
	}
	if m["msg"] != "stalled" || m["level"] != "DEBUG" || m["run"] != r.Obs.Run() || m["gen"] != float64(9) {
		t.Errorf("decoded record = %v, want msg, level, run %s and gen", m, r.Obs.Run())
	}
}

// The default format is slog's text handler, one key=value line per record.
func TestLoggerText(t *testing.T) {
	var b strings.Builder
	r := start(t, &b, "-log-level", "info")
	r.Obs.Log().Info("new best", "gen", 7)
	for _, want := range []string{"level=INFO", `msg="new best"`, "run=" + r.Obs.Run(), "gen=7"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("text record %q lacks %s", b.String(), want)
		}
	}
}

func TestLoggerLevelThreshold(t *testing.T) {
	var b strings.Builder
	r := start(t, &b, "-log-level", "WARN")
	r.Obs.Log().Info("hidden")
	r.Obs.Log().Warn("shown")
	if strings.Contains(b.String(), "hidden") || !strings.Contains(b.String(), "shown") {
		t.Errorf("warn threshold let through:\n%s", b.String())
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for _, lvl := range []string{"debug", "INFO", "warn", "Warning", "error"} {
		if _, err := (&Config{LogFormat: "TEXT", LogLevel: lvl}).handler(&strings.Builder{}); err != nil {
			t.Errorf("level %q rejected: %v", lvl, err)
		}
	}
	for _, c := range []Config{{LogFormat: "text", LogLevel: "loud"}, {LogFormat: "yaml", LogLevel: "info"}} {
		if _, err := c.Start(&strings.Builder{}); err == nil {
			t.Errorf("Start accepted -log-format %q -log-level %q", c.LogFormat, c.LogLevel)
		}
	}
}

// Tracing is armed by default, so every binary's syntheses are traced;
// -trace-slowest 0 turns it off.
func TestTracingOnByDefault(t *testing.T) {
	if start(t, &strings.Builder{}).Obs.Tracer() == nil {
		t.Error("no tracer armed by default")
	}
	if start(t, &strings.Builder{}, "-trace-slowest", "0").Obs.Tracer() != nil {
		t.Error("-trace-slowest 0 armed a tracer")
	}
}
