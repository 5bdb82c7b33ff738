package main

import (
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The program's metric catalog and workload list are the ones
// BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, tc := range []struct {
		kind      string
		file, def []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(tc.file) != len(tc.def) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", tc.kind, len(tc.file), len(tc.def))
			continue
		}
		for i := range tc.def {
			if tc.file[i] != tc.def[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", tc.kind, i, tc.file[i], tc.def[i])
			}
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}
