package main

import (
	"math"
	"testing"

	"iddqsyn/internal/obs"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.9, 3.7},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{5}, 0.9, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1.5, 1.5, 1.5}, 1.5, 1.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{"empty", nil, 0, 100, 0},
		{"disjoint", [][2]int64{{10, 20}, {30, 40}}, 0, 100, 20},
		{"overlapping", [][2]int64{{10, 30}, {20, 50}}, 0, 100, 40},
		{"nested", [][2]int64{{10, 60}, {20, 30}}, 0, 100, 50},
		{"unsorted", [][2]int64{{60, 70}, {10, 30}, {20, 50}}, 0, 100, 50},
		{"clipped", [][2]int64{{-10, 20}, {90, 120}}, 0, 100, 30},
		{"outside", [][2]int64{{200, 300}}, 0, 100, 0},
		{"touching", [][2]int64{{10, 20}, {20, 30}}, 0, 100, 20},
	} {
		if got := unionLength(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: unionLength = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.SpanRecord{
		{Span: 2, Parent: 1, Name: "a", Start: 10, Dur: 20},  // [10, 30)
		{Span: 1, Name: "root", Start: 0, Dur: 100},          // [0, 100)
		{Span: 3, Parent: 1, Name: "b", Start: 20, Dur: 30},  // [20, 50), overlaps a
		{Span: 4, Parent: 1, Name: "c", Start: 60, Dur: 10},  // [60, 70)
		{Span: 5, Parent: 2, Name: "a1", Start: 12, Dur: 30}, // runs past its parent's end
	}
	want := map[string]int64{"root": 50, "a": 2, "b": 30, "c": 10, "a1": 30}
	got := selfTimes(spans)
	if got[0].rec.Name != "root" {
		t.Errorf("first span by start = %s, want root", got[0].rec.Name)
	}
	for _, st := range got {
		if st.self != want[st.rec.Name] {
			t.Errorf("self(%s) = %d, want %d", st.rec.Name, st.self, want[st.rec.Name])
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, steady, false, "same"},
		{"regression", steady, scale(steady, 1.2), false, "regression"},
		{"gain", steady, scale(steady, 0.95), false, "gain"},
		{"gain, higher is better", steady, scale(steady, 1.05), true, "gain"},
		{"regression, higher is better", steady, scale(steady, 0.8), true, "regression"},
		{"unresolved", noisy, scale(noisy, 1.05), false, "unresolved"},
		{"every run better", noisy, scale(steady, 0.3), false, "gain (every run better)"},
	} {
		if got := judge(tc.a, tc.b, tc.higher, 0.1).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
