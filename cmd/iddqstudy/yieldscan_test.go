package main

import (
	"context"
	"strings"
	"testing"
)

func TestYieldStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("yield study in short mode")
	}
	points, zero, err := yieldStudy(context.Background(), "c432", fastEvolution())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 10 {
		t.Fatalf("points = %d", len(points))
	}
	// The paper's 1 µA operating point must sit in the zero-overkill
	// window, and the window must start below it.
	if zero >= 1e-6 {
		t.Errorf("zero-overkill threshold %g above the 1 µA operating point", zero)
	}
	var at1uA, atLow, atHigh *struct{ escape, overkill float64 }
	for i := range points {
		p := points[i]
		v := &struct{ escape, overkill float64 }{p.Escape, p.Overkill}
		switch {
		case p.Threshold >= 1e-6 && at1uA == nil:
			at1uA = v
		case p.Threshold <= 2e-9 && atLow == nil:
			atLow = v
		}
		if p.Threshold >= 5e-3 {
			atHigh = v
		}
	}
	if at1uA == nil || atLow == nil || atHigh == nil {
		t.Fatal("sweep did not cover the expected decades")
	}
	if at1uA.overkill > 0.01 {
		t.Errorf("overkill at 1 µA = %.3f", at1uA.overkill)
	}
	if atLow.overkill < 0.9 {
		t.Errorf("overkill at 2 nA = %.3f, want ~1", atLow.overkill)
	}
	if atHigh.escape < 0.9 {
		t.Errorf("escape at 5 mA = %.3f, want ~1", atHigh.escape)
	}
	out := formatYield(points)
	if !strings.Contains(out, "IDDQ,th") {
		t.Errorf("format:\n%s", out)
	}
}

func TestScanStudy(t *testing.T) {
	rows, err := scanStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want all ISCAS89 profiles", len(rows))
	}
	improved := 0
	for _, r := range rows {
		if r.OrderedLen > r.DeclaredLen {
			t.Errorf("%s: ordering made wiring worse (%d > %d)",
				r.Circuit, r.OrderedLen, r.DeclaredLen)
		}
		if r.OrderedLen < r.DeclaredLen {
			improved++
		}
		if r.TestTime <= 0 {
			t.Errorf("%s: degenerate test time", r.Circuit)
		}
	}
	if improved < 3 {
		t.Errorf("ordering improved only %d/6 chains", improved)
	}
	out := formatScan(rows)
	if !strings.Contains(out, "s5378") {
		t.Errorf("format:\n%s", out)
	}
}
