package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// decodeRecords parses JSON-handler output, one record per line.
func decodeRecords(t *testing.T, out string) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved or malformed record %q: %v", line, err)
		}
		recs = append(recs, m)
	}
	return recs
}

func TestLoggerNil(t *testing.T) {
	var nilObs *Obs
	for _, o := range []*Obs{nilObs, New("r-1", nil, nil)} {
		l := o.Log()
		if l == nil {
			t.Fatal("Log() must never return nil")
		}
		// Discarded; must not panic.
		l.With("a", 1).Error("x", "k", "v")
		if l.Enabled(context.Background(), slog.LevelError) {
			t.Error("the logger of an unobserved run must report disabled")
		}
	}
}

func TestLoggerConcurrentNoInterleave(t *testing.T) {
	var b safeBuilder
	o := New("r-1", nil, slog.New(slog.NewJSONHandler(&b, nil)))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				o.Log().Info("event", "worker", id, "i", i)
			}
		}(w)
	}
	wg.Wait()
	recs := decodeRecords(t, b.String())
	if len(recs) != 400 {
		t.Fatalf("got %d records, want 400", len(recs))
	}
	for _, m := range recs {
		if m["run"] != "r-1" || m["msg"] != "event" || m["worker"] == nil {
			t.Fatalf("record missing its run, message or fields: %v", m)
		}
	}
}

// A sub-run's records carry its own run ID and no other: serve stamps
// every job's records with the job ID over the server's log output.
func TestChildStampsOneRun(t *testing.T) {
	var b strings.Builder
	parent := New("r-server", nil, slog.New(slog.NewJSONHandler(&b, nil)))
	parent.Child("j-1").Log().Info("job event")
	parent.Log().Info("server event")
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	for i, want := range []string{"j-1", "r-server"} {
		if n := strings.Count(lines[i], `"run":`); n != 1 {
			t.Errorf("record %q has %d run keys, want 1", lines[i], n)
		}
		if m := decodeRecords(t, lines[i]); m[0]["run"] != want {
			t.Errorf("record %d run = %v, want %s", i, m[0]["run"], want)
		}
	}
	if c := parent.Child("j-2"); c.Registry() != parent.Registry() {
		t.Error("a sub-run must share its parent's registry")
	}
}

// safeBuilder is a mutex-guarded strings.Builder. The handler serializes
// writes itself; the guard here keeps the *test's* read race-free.
type safeBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
