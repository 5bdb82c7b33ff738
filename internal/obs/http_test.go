package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func startTestServer(t *testing.T) (*Obs, *Server) {
	t.Helper()
	o := New("r-test", nil, nil)
	s, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return o, s
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", s.Addr(), path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	o, s := startTestServer(t)
	o.Counter("evolution.evaluations").Add(12)
	o.Histogram("evolution.generation.seconds", nil).Observe(0.25)
	o.SetStatus(map[string]any{"generation": 3, "best_cost": 42.5})
	o.SetTracer(NewTracer(TracerConfig{}))
	o.Tracer().StartRoot("serve.job").End()

	t.Run("index", func(t *testing.T) {
		code, body := get(t, s, "/")
		if code != http.StatusOK || !strings.Contains(body, "/runz") {
			t.Errorf("index: code=%d body=%q", code, body)
		}
	})
	t.Run("healthz", func(t *testing.T) {
		code, body := get(t, s, "/healthz")
		if code != http.StatusOK || !strings.Contains(body, "ok") {
			t.Errorf("healthz: code=%d body=%q", code, body)
		}
	})
	t.Run("runz", func(t *testing.T) {
		code, body := get(t, s, "/runz")
		if code != http.StatusOK {
			t.Fatalf("runz: code=%d", code)
		}
		var v struct {
			Run    string         `json:"run"`
			Status map[string]any `json:"status"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("runz not JSON: %v\n%s", err, body)
		}
		if v.Run != "r-test" || v.Status["generation"] != float64(3) {
			t.Errorf("runz = %+v", v)
		}
	})
	t.Run("metricz", func(t *testing.T) {
		code, body := get(t, s, "/metricz")
		if code != http.StatusOK {
			t.Fatalf("metricz: code=%d", code)
		}
		var snap MetricsSnapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("metricz not JSON: %v", err)
		}
		if snap.Counters["evolution.evaluations"] != 12 {
			t.Errorf("metricz counters = %v", snap.Counters)
		}
		qs, ok := snap.Quantiles["evolution.generation.seconds"]
		if !ok || qs.P50 <= 0 {
			t.Errorf("metricz must render latency quantiles, got %v", snap.Quantiles)
		}
	})
	t.Run("tracez", func(t *testing.T) {
		code, body := get(t, s, "/tracez")
		if code != http.StatusOK || !strings.Contains(body, "traceEvents") {
			t.Fatalf("tracez: code=%d body=%.200q", code, body)
		}
		code, body = get(t, s, "/tracez?format=json")
		if code != http.StatusOK {
			t.Fatalf("tracez json: code=%d", code)
		}
		var snap TraceSnapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("tracez?format=json not a TraceSnapshot: %v", err)
		}
		if len(snap.Slowest) != 1 || snap.Slowest[0].Root != "serve.job" {
			t.Errorf("tracez snapshot = %+v, want the serve.job trace", snap.Slowest)
		}
	})
	t.Run("expvar", func(t *testing.T) {
		code, body := get(t, s, "/debug/vars")
		if code != http.StatusOK || !strings.Contains(body, `"iddqsyn"`) {
			t.Errorf("expvar: code=%d, registry not published:\n%.200s", code, body)
		}
	})
	t.Run("pprof", func(t *testing.T) {
		code, body := get(t, s, "/debug/pprof/goroutine?debug=1")
		if code != http.StatusOK || !strings.Contains(body, "goroutine") {
			t.Errorf("pprof: code=%d body=%.100q", code, body)
		}
	})
	t.Run("notfound", func(t *testing.T) {
		if code, _ := get(t, s, "/nosuch"); code != http.StatusNotFound {
			t.Errorf("unknown path: code=%d, want 404", code)
		}
	})
}

// The expvar hook is process-global (Publish panics on duplicates), so a
// second server must re-point it instead of re-publishing.
func TestSecondServerRebindsExpvar(t *testing.T) {
	_, s1 := startTestServer(t)
	o2, s2 := startTestServer(t)
	o2.Counter("second.server").Inc()
	for _, s := range []*Server{s1, s2} {
		_, body := get(t, s, "/debug/vars")
		if !strings.Contains(body, "second.server") {
			t.Errorf("expvar on %s must serve the latest registry", s.Addr())
		}
	}
}

func TestServerCloseIdempotentNil(t *testing.T) {
	var s *Server
	if err := s.Close(context.Background()); err != nil {
		t.Errorf("nil server Close = %v, want nil", err)
	}
	if s.Addr() != "" {
		t.Error("nil server Addr must be empty")
	}
}
