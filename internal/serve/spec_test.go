package serve

import (
	"errors"
	"strings"
	"testing"

	"iddqsyn/internal/bench"
	"iddqsyn/internal/circuits"
)

func c17Netlist(t testing.TB) string {
	t.Helper()
	return bench.Format(circuits.C17())
}

func TestParseJobSpecRawNetlist(t *testing.T) {
	nl := c17Netlist(t)
	spec, err := ParseJobSpec("text/plain", []byte(nl))
	if err != nil {
		t.Fatalf("raw netlist: %v", err)
	}
	c, err := spec.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLogicGates() != 6 {
		t.Fatalf("C17 parsed to %d logic gates, want 6", c.NumLogicGates())
	}
	if spec.Method != "" || spec.Generations != 0 {
		t.Fatalf("raw submission must carry default options, got %+v", spec)
	}
}

func TestParseJobSpecJSON(t *testing.T) {
	body := `{"netlist": ` + jsonString(c17Netlist(t)) + `, "method": "standard", "generations": 10, "seed": 7, "timeout": "5s"}`
	spec, err := ParseJobSpec("application/json", []byte(body))
	if err != nil {
		t.Fatalf("json spec: %v", err)
	}
	if spec.Method != "standard" || spec.Generations != 10 || spec.Seed != 7 {
		t.Fatalf("decoded %+v", spec)
	}
	d, err := spec.JobTimeout()
	if err != nil || d.Seconds() != 5 {
		t.Fatalf("timeout: %v %v", d, err)
	}
}

func TestParseJobSpecNamedErrors(t *testing.T) {
	nl := jsonString(c17Netlist(t))
	cases := []struct {
		name        string
		contentType string
		body        string
	}{
		{"empty body", "text/plain", ""},
		{"garbage netlist", "text/plain", "this is not bench"},
		{"broken json", "application/json", `{"netlist": "x"`},
		{"unknown field", "application/json", `{"netlist": ` + nl + `, "generatons": 5}`},
		{"trailing data", "application/json", `{"netlist": ` + nl + `} extra`},
		{"bad method", "application/json", `{"netlist": ` + nl + `, "method": "annealing"}`},
		{"negative gens", "application/json", `{"netlist": ` + nl + `, "generations": -1}`},
		{"huge gens", "application/json", `{"netlist": ` + nl + `, "generations": 100001}`},
		{"bad timeout", "application/json", `{"netlist": ` + nl + `, "timeout": "yesterday"}`},
		{"huge timeout", "application/json", `{"netlist": ` + nl + `, "timeout": "26h"}`},
		{"bad name", "application/json", `{"netlist": ` + nl + `, "name": "../../etc/passwd"}`},
	}
	for _, tc := range cases {
		_, err := ParseJobSpec(tc.contentType, []byte(tc.body))
		if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: err = %v, want ErrSpec", tc.name, err)
		}
	}
}

// The evaluation-worker count is no longer a spec field: the worker pool
// follows GOMAXPROCS. A submission that still names it is a spec error,
// like any other unknown field.
func TestParseJobSpecRejectsWorkers(t *testing.T) {
	body := `{"netlist": ` + jsonString(c17Netlist(t)) + `, "workers": 2}`
	_, err := ParseJobSpec("application/json", []byte(body))
	if !errors.Is(err, ErrSpec) || !strings.Contains(err.Error(), `"workers"`) {
		t.Fatalf("err = %v, want ErrSpec naming the workers field", err)
	}
}

func TestJobSpecHash(t *testing.T) {
	nl := c17Netlist(t)
	a := &JobSpec{Netlist: nl, Generations: 10}
	b := &JobSpec{Netlist: nl, Generations: 10, Tenant: "other", Name: "label"}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatal("tenant and name must not split the content hash")
	}
	// Whitespace and comments in the netlist are structural no-ops.
	c := &JobSpec{Netlist: "# comment\n\n" + nl + "\n", Generations: 10}
	if hc, _ := c.Hash(); hc != ha {
		t.Fatal("netlist formatting must not split the content hash")
	}
	d := &JobSpec{Netlist: nl, Generations: 11}
	if hd, _ := d.Hash(); hd == ha {
		t.Fatal("a different generation budget must produce a different hash")
	}
	// Defaulted fields hash identically to their explicit defaults: the
	// runtime treats them the same, so the cache must too.
	expl := &JobSpec{Netlist: nl, Generations: 10, Method: "evolution", Seed: 1}
	if he, _ := expl.Hash(); he != ha {
		t.Fatal("explicit defaults must not split the content hash")
	}
	t60 := &JobSpec{Netlist: nl, Generations: 10, Timeout: "60s"}
	t1m := &JobSpec{Netlist: nl, Generations: 10, Timeout: "1m"}
	h60, _ := t60.Hash()
	if h1m, _ := t1m.Hash(); h60 != h1m {
		t.Fatal("one timeout spelled two ways must not split the content hash")
	}
	if h60 == ha {
		t.Fatal("an explicit timeout must hash apart from the server-default budget")
	}
	s2 := &JobSpec{Netlist: nl, Generations: 10, Seed: 2}
	if hs2, _ := s2.Hash(); hs2 == ha {
		t.Fatal("a different seed must produce a different hash")
	}
	id, err := a.JobID()
	if err != nil || len(id) != 17 || id[0] != 'j' {
		t.Fatalf("JobID = %q, %v", id, err)
	}
}

// jsonString JSON-encodes s (tests build spec bodies by hand).
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// FuzzJobSpec drives the submission parser with arbitrary bytes and
// content types: it must never panic, and every rejection must wrap the
// named ErrSpec so the HTTP layer classifies it as a client error.
func FuzzJobSpec(f *testing.F) {
	c17 := bench.Format(circuits.C17())
	f.Add("text/plain", c17)
	f.Add("application/json", `{"netlist": "INPUT a\nOUTPUT b\nb = NOT(a)"}`)
	f.Add("application/json", `{"netlist": "", "method": "evolution"}`)
	f.Add("application/json", `{"generations": -5}`)
	f.Add("text/plain", "INPUT(\x00)\ngarbage")
	f.Add("application/json", `{"netlist": 42}`)
	f.Add("text/plain", "{")
	f.Fuzz(func(t *testing.T, contentType, body string) {
		spec, err := ParseJobSpec(contentType, []byte(body))
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("non-spec error from the parser: %v", err)
			}
			return
		}
		// An accepted spec must survive the rest of the pipeline's entry
		// points without panicking.
		if _, err := spec.Circuit(); err != nil {
			t.Fatalf("accepted spec fails Circuit: %v", err)
		}
		if _, err := spec.Options(); err != nil {
			t.Fatalf("accepted spec fails Options: %v", err)
		}
		if _, err := spec.JobID(); err != nil {
			t.Fatalf("accepted spec fails JobID: %v", err)
		}
	})
}
