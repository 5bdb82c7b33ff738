package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.21\n"
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const dirtyFile = `package p

import "fmt"

func f(err error) error {
	return fmt.Errorf("load: %v", err)
}
`

const cleanFile = `package p

import "fmt"

func f(err error) error {
	return fmt.Errorf("load: %w", err)
}
`

func TestExitCodeClean(t *testing.T) {
	root := writeModule(t, map[string]string{"p/p.go": cleanFile})
	var out, errb bytes.Buffer
	if code := run([]string{"-root", root}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s stdout: %s", code, errb.String(), out.String())
	}
}

func TestExitCodeFindings(t *testing.T) {
	root := writeModule(t, map[string]string{"p/p.go": dirtyFile})
	var out, errb bytes.Buffer
	if code := run([]string{"-root", root}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "errwrapcheck") {
		t.Fatalf("stdout missing errwrapcheck finding: %s", out.String())
	}
}

func TestExitCodeTypeError(t *testing.T) {
	root := writeModule(t, map[string]string{"p/p.go": "package p\n\nfunc f() int { return undefined }\n"})
	var out, errb bytes.Buffer
	if code := run([]string{"-root", root}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (tooling failure); stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "undefined") {
		t.Fatalf("stderr should name the type error: %s", errb.String())
	}
}

func TestJSONOutput(t *testing.T) {
	root := writeModule(t, map[string]string{"p/p.go": dirtyFile})
	var out, errb bytes.Buffer
	if code := run([]string{"-root", root, "-json"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	var findings []struct {
		File, Analyzer, Message string
		Line                    int
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(findings) != 1 || findings[0].Analyzer != "errwrapcheck" || findings[0].File != "p/p.go" {
		t.Fatalf("findings = %+v", findings)
	}
}

func TestSARIFOutput(t *testing.T) {
	root := writeModule(t, map[string]string{"p/p.go": dirtyFile})
	sarif := filepath.Join(root, "lint.sarif")
	var out, errb bytes.Buffer
	if code := run([]string{"-root", root, "-sarif", sarif}, &out, &errb); code != 1 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string
		Runs    []struct {
			Results []struct{ RuleID string }
		}
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("invalid SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 ||
		log.Runs[0].Results[0].RuleID != "errwrapcheck" {
		t.Fatalf("sarif = %s", data)
	}
}

// TestSARIFRulesPinToolVersion pins the SARIF rule set to toolVersion:
// consumers key rule sets by tool version, so adding or removing a rule
// must bump toolVersion, and then this table.
func TestSARIFRulesPinToolVersion(t *testing.T) {
	rulesByVersion := map[string]string{
		"6.0.0": "closecheck,ctxloop,determtaint,errwrapcheck,goleak,hotalloc,lintdirective," +
			"lockorder,panicpolicy,renameatomic,sharedstate,spanend",
	}
	root := writeModule(t, map[string]string{"p/p.go": cleanFile})
	sarif := filepath.Join(root, "lint.sarif")
	var out, errb bytes.Buffer
	if code := run([]string{"-root", root, "-sarif", sarif}, &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Version string
					Rules   []struct{ ID string }
				}
			}
		}
	}
	if err := json.Unmarshal(data, &log); err != nil || len(log.Runs) != 1 {
		t.Fatalf("invalid SARIF log (%v): %s", err, data)
	}
	driver := log.Runs[0].Tool.Driver
	var ids []string
	for _, r := range driver.Rules {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	if driver.Version != toolVersion {
		t.Errorf("SARIF tool version %q, want toolVersion %q", driver.Version, toolVersion)
	}
	if got, want := strings.Join(ids, ","), rulesByVersion[toolVersion]; got != want {
		t.Errorf("SARIF rules of toolVersion %s changed; bump toolVersion and pin the new set:\ngot  %s\nwant %s",
			toolVersion, got, want)
	}
}

func TestListAndSelection(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, name := range []string{"determtaint", "errwrapcheck", "sharedstate", "lintdirective"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing %s:\n%s", name, out.String())
		}
	}
	if n := strings.Count(out.String(), "\n"); n != 12 {
		t.Errorf("-list printed %d lines, want 11 analyzers plus lintdirective:\n%s", n, out.String())
	}
	if code := run([]string{"-enable", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("-enable nosuch exit %d, want 2", code)
	}
	// Disabling the reporting analyzer silences the dirty module.
	root := writeModule(t, map[string]string{"p/p.go": dirtyFile})
	out.Reset()
	if code := run([]string{"-root", root, "-disable", "errwrapcheck"}, &out, &errb); code != 0 {
		t.Fatalf("disabled run exit %d; stdout: %s", code, out.String())
	}
}
