package lint_test

import (
	"bytes"
	"strings"
	"testing"

	"iddqsyn/internal/lint"
	"iddqsyn/internal/lint/analysis"
	"iddqsyn/internal/lint/analysistest"
)

// TestNoRandGlobal covers determtaint's file-level checks on a package
// outside the seeded path: references to the process-global math/rand
// and math/rand/v2 streams and sources seeded from the wall clock or the
// process id are flagged; explicit seeds and an injected stream are not.
func TestNoRandGlobal(t *testing.T) {
	analysistest.Run(t, "testdata", lint.DetermTaint, "norandglobal")
}

func TestPanicPolicy(t *testing.T) {
	analysistest.Run(t, "testdata", lint.PanicPolicy, "panicpolicy")
}

func TestCtxLoop(t *testing.T) {
	analysistest.Run(t, "testdata", lint.CtxLoop, "ctxloop")
}

func TestCloseCheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.CloseCheck, "closecheck")
}

func TestRenameAtomic(t *testing.T) {
	analysistest.Run(t, "testdata", lint.RenameAtomic, "renameatomic")
}

// TestDetermTaint covers the determinism-scope package (base name
// "evolution", with cross-package facts from clocksrc and the obs
// exemption) and the *rand.Rand-parameter contract (package atpglike).
func TestDetermTaint(t *testing.T) {
	analysistest.Run(t, "testdata", lint.DetermTaint, "determtaint/evolution", "atpglike")
}

func TestErrWrapCheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.ErrWrapCheck, "errwrapcheck")
}

// TestHotAlloc covers the reverse-wave call-graph analysis: the driver
// package declares the hotpath roots and dispatches through an interface;
// the kernel package becomes hot purely through facts exported by the
// driver, which is analyzed first because it is the dependent.
func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", lint.HotAlloc, "hotalloc/driver", "hotalloc/kernel")
}

// TestLockOrder covers cycles formed directly and through acquisition
// summaries, self-edges, a lock released only on an early-exit arm, and
// goroutines spawned under a lock (which do not hold it).
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", lint.LockOrder, "lockorder")
}

func TestGoLeak(t *testing.T) {
	analysistest.Run(t, "testdata", lint.GoLeak, "goleak")
}

func TestSpanEnd(t *testing.T) {
	analysistest.Run(t, "testdata", lint.SpanEnd, "spanend")
}

// TestSharedState covers the lockset analyzer's four finding shapes
// (guarded+bare, disjoint locks, atomic+plain, loop-spawned pool) and
// its silences (consistent guarding, single-owner fields, pre-spawn
// initialization, constructor locals, *Locked helpers).
func TestSharedState(t *testing.T) {
	analysistest.Run(t, "testdata", lint.SharedState, "sharedstate")
}

// TestSharedStateGuardedBy pins the `// guarded by mu` check: accesses
// without mu held are reported at the access, flow-sensitively (an
// access after mu.Unlock() is bare, and so is one in a deferred literal
// that runs after it), while deferred unlocks, the early-return idiom,
// closures defined under the lock, literals that lock for themselves,
// RLock, *Locked helpers and constructor locals pass.
func TestSharedStateGuardedBy(t *testing.T) {
	analysistest.Run(t, "testdata", lint.SharedState, "sharedstate/guard")
}

// TestSharedStateCrossPackage pins the reverse-wave fact flow: app (the
// dependent, analyzed first) spawns a goroutine writing lib.Store.Val
// bare; lib sees only consistent guarded access locally and can flag
// the field only because app's access sites arrived as facts.
func TestSharedStateCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata", lint.SharedState, "sharedstate/lib", "sharedstate/app")
}

// TestSharedStateRaceSeeds pins the analyzer to the seeded-race corpus
// at golden precision: every planted field carries a line-anchored want
// comment (the loader parses the corpus despite its raceseeds build
// tag). The coarser manifest-level assertion is
// TestRaceSeedCorpusFullyFlagged in racecheck_test.go.
func TestSharedStateRaceSeeds(t *testing.T) {
	analysistest.Run(t, "testdata", lint.SharedState, "raceseeds")
}

func TestApplies(t *testing.T) {
	cases := []struct {
		analyzer string
		path     string
		want     bool
	}{
		{"panicpolicy", "iddqsyn/internal/atpg", true},
		{"panicpolicy", "iddqsyn/cmd/iddqpart", false},
		{"panicpolicy", "internal/lint", true},
		{"determtaint", "iddqsyn/cmd/iddqsim", true},
		{"ctxloop", "iddqsyn/examples/sweep", true},
		{"closecheck", "iddqsyn/cmd/table1", true},
		{"renameatomic", "iddqsyn/internal/fsx", false},
		{"renameatomic", "internal/fsx", false},
		{"renameatomic", "iddqsyn/internal/evolution", true},
		{"renameatomic", "iddqsyn/cmd/iddqpart", true},
	}
	for _, c := range cases {
		a, ok := lint.ByName(c.analyzer)
		if !ok {
			t.Fatalf("unknown analyzer %q", c.analyzer)
		}
		if got := lint.Applies(a, c.path); got != c.want {
			t.Errorf("Applies(%s, %s) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := lint.ByName("nosuch"); ok {
		t.Fatal("ByName(nosuch) succeeded")
	}
	if len(lint.Analyzers()) != 11 {
		t.Fatalf("expected 11 analyzers, got %d", len(lint.Analyzers()))
	}
	names := lint.Names()
	if len(names) != 12 || names[len(names)-1] != "lintdirective" {
		t.Fatalf("Names() = %v, want 11 analyzers plus lintdirective", names)
	}
}

// TestFactDebugFinalFacts runs the whole suite twice over lib and its
// two dependents app and worker, which merge access sites into the same
// lib.Store.Val fact in whichever order the parallel reverse wave runs
// them. The -fact-debug dump must be identical across runs and print
// each (subject, fact type) pair once, with the final merged value.
func TestFactDebugFinalFacts(t *testing.T) {
	dump := func() string {
		prog, err := analysis.Load(analysis.Config{
			Root:     "testdata",
			Patterns: []string{"sharedstate/lib", "sharedstate/app", "sharedstate/worker"},
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := prog.Run(lint.Analyzers(), analysis.Options{
			KnownAnalyzers: lint.Names(),
			FactDebug:      &buf,
		}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first, second := dump(), dump()
	if first != second {
		t.Fatalf("fact dumps differ between runs:\n%s\n---\n%s", first, second)
	}
	keys := map[string]bool{}
	merged := false
	for _, line := range strings.Split(strings.TrimSpace(first), "\n") {
		parts := strings.SplitN(line, ": ", 3)
		if len(parts) != 3 {
			t.Fatalf("malformed fact line %q", line)
		}
		key := parts[0] + ": " + parts[1]
		if keys[key] {
			t.Errorf("fact key printed twice: %s", key)
		}
		keys[key] = true
		if strings.HasPrefix(parts[1], "sharedstate/lib.Val ") && parts[2] == "2 external access site(s)" {
			merged = true
		}
	}
	if !merged {
		t.Errorf("want lib.Store.Val's fact merged from app and worker (2 external access sites), dump:\n%s", first)
	}
}

// TestFactsStayInModule runs the suite over goldens where a hot function
// calls the standard library (kernel.Leaf calls bits.OnesCount) and a
// spawned body reads a standard-library field (owner.Start reads
// time.Ticker.C). No pass analyzes a package outside the module, so no
// fact may land on one: every fact subject must belong to a loaded
// package.
func TestFactsStayInModule(t *testing.T) {
	prog, err := analysis.Load(analysis.Config{
		Root:     "testdata",
		Patterns: []string{"hotalloc/driver", "sharedstate"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prog.Run(lint.Analyzers(), analysis.Options{
		KnownAnalyzers: lint.Names(),
		FactDebug:      &buf,
	}); err != nil {
		t.Fatal(err)
	}
	hotLeaf := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		parts := strings.SplitN(line, ": ", 3)
		if len(parts) != 3 {
			t.Fatalf("malformed fact line %q", line)
		}
		if pkg := factSubjectPackage(parts[1]); prog.Package(pkg) == nil {
			t.Errorf("fact on %s, outside the module: %s", pkg, line)
		}
		hotLeaf = hotLeaf || strings.HasPrefix(line, "hotalloc: hotalloc/kernel.Leaf: hot")
	}
	if !hotLeaf {
		t.Errorf("want kernel.Leaf hot through the driver's fact, dump:\n%s", buf.String())
	}
}

// factSubjectPackage extracts the package path from a -fact-debug
// subject: "package p", "p.F", "(*p.T).M" or "p.Field (file.go:12)".
func factSubjectPackage(subject string) string {
	if pkg, ok := strings.CutPrefix(subject, "package "); ok {
		return pkg
	}
	s, _, _ := strings.Cut(subject, " (")
	s = strings.TrimLeft(s, "(*")
	s, _, _ = strings.Cut(s, ")")
	return s[:strings.LastIndex(s, ".")]
}
