package celllib

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"iddqsyn/internal/circuit"
)

func mustC17(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("c17")
	for _, in := range []string{"I1", "I2", "I3", "I4", "I5"} {
		b.AddInput(in)
	}
	b.AddGate("g1", circuit.Nand, "I1", "I3")
	b.AddGate("g2", circuit.Nand, "I3", "I4")
	b.AddGate("g3", circuit.Nand, "I2", "g2")
	b.AddGate("g4", circuit.Nand, "g2", "I5")
	b.AddGate("g5", circuit.Nand, "g1", "g3")
	b.AddGate("g6", circuit.Nand, "g3", "g4")
	b.MarkOutput("g5").MarkOutput("g6")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultLibraryComplete(t *testing.T) {
	l := Default()
	// Every gate type must be mappable at fanins 1/2..5.
	for _, typ := range []circuit.GateType{circuit.Buf, circuit.Not} {
		if _, err := l.CellFor(typ, 1); err != nil {
			t.Errorf("CellFor(%v,1): %v", typ, err)
		}
	}
	for _, typ := range []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor} {
		for fanin := 2; fanin <= 5; fanin++ {
			if _, err := l.CellFor(typ, fanin); err != nil {
				t.Errorf("CellFor(%v,%d): %v", typ, fanin, err)
			}
		}
	}
	for _, typ := range []circuit.GateType{circuit.Xor, circuit.Xnor} {
		for fanin := 2; fanin <= 3; fanin++ {
			if _, err := l.CellFor(typ, fanin); err != nil {
				t.Errorf("CellFor(%v,%d): %v", typ, fanin, err)
			}
		}
	}
}

func TestCellForPicksSmallestVariant(t *testing.T) {
	l := Default()
	c2, err := l.CellFor(circuit.Nand, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Name != "NAND2" {
		t.Errorf("CellFor(Nand,2) = %s, want NAND2", c2.Name)
	}
	c3, err := l.CellFor(circuit.Nand, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Name != "NAND3" {
		t.Errorf("CellFor(Nand,3) = %s, want NAND3", c3.Name)
	}
}

func TestCellForFailsForHugeFanin(t *testing.T) {
	l := Default()
	if _, err := l.CellFor(circuit.Nand, 40); err == nil {
		t.Error("want error for fanin 40")
	}
}

func TestAddValidation(t *testing.T) {
	l := New("t", 5)
	bad := &Cell{Name: "x", Function: circuit.Nand, MaxFanin: 0, Area: 1, Delay: 1, PeakCurrent: 1, Rg: 1}
	if err := l.Add(bad); err == nil {
		t.Error("want error for MaxFanin 0")
	}
	bad2 := &Cell{Name: "x", Function: circuit.Nand, MaxFanin: 2, Area: 0, Delay: 1, PeakCurrent: 1, Rg: 1}
	if err := l.Add(bad2); err == nil {
		t.Error("want error for zero area")
	}
	good := &Cell{Name: "x", Function: circuit.Nand, MaxFanin: 2, Area: 1, Delay: 1, PeakCurrent: 1, Rg: 1}
	if err := l.Add(good); err != nil {
		t.Errorf("Add(good): %v", err)
	}
	dup := &Cell{Name: "y", Function: circuit.Nand, MaxFanin: 2, Area: 1, Delay: 1, PeakCurrent: 1, Rg: 1}
	if err := l.Add(dup); err == nil {
		t.Error("want error for duplicate (function,fanin)")
	}
}

func TestAddRejectsInvalidParameters(t *testing.T) {
	valid := func() *Cell {
		return &Cell{Name: "x", Function: circuit.Nand, MaxFanin: 2, Area: 1, Delay: 1e-9,
			DelayPerFanout: 1e-10, PeakCurrent: 1e-4, LeakBase: 1e-12, LeakPerIn: 1e-13,
			Cin: 1e-15, Cout: 1e-15, Rg: 1e4}
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(c *Cell)
	}{
		{"zero MaxFanin", func(c *Cell) { c.MaxFanin = 0 }},
		{"zero Area", func(c *Cell) { c.Area = 0 }},
		{"NaN Delay", func(c *Cell) { c.Delay = nan }},
		{"Inf PeakCurrent", func(c *Cell) { c.PeakCurrent = inf }},
		{"negative Rg", func(c *Cell) { c.Rg = -1 }},
		{"negative DelayPerFanout", func(c *Cell) { c.DelayPerFanout = -1e-10 }},
		{"NaN LeakBase", func(c *Cell) { c.LeakBase = nan }},
		{"negative LeakBase", func(c *Cell) { c.LeakBase = -1e-12 }},
		{"negative LeakPerIn", func(c *Cell) { c.LeakPerIn = -1e-13 }},
		{"-Inf LeakPerIn", func(c *Cell) { c.LeakPerIn = -inf }},
		{"negative Cin", func(c *Cell) { c.Cin = -1e-15 }},
		{"NaN Cout", func(c *Cell) { c.Cout = nan }},
		{"negative Cout", func(c *Cell) { c.Cout = -1e-15 }},
	}
	for _, tc := range cases {
		c := valid()
		tc.set(c)
		if err := New("t", 5).Add(c); !errors.Is(err, ErrInvalidCell) {
			t.Errorf("%s: Add = %v, want ErrInvalidCell", tc.name, err)
		}
	}
	unloaded := valid()
	unloaded.DelayPerFanout, unloaded.LeakBase, unloaded.LeakPerIn, unloaded.Cin, unloaded.Cout = 0, 0, 0, 0, 0
	if err := New("t", 5).Add(unloaded); err != nil {
		t.Errorf("zero non-negative parameters: Add = %v, want nil", err)
	}
}

func TestLeakageModel(t *testing.T) {
	c := &Cell{Name: "NAND2", Function: circuit.Nand, MaxFanin: 2,
		LeakBase: 10e-12, LeakPerIn: 2e-12}
	if got, want := c.LeakageMax(), 14e-12; !approx(got, want, 1e-18) {
		t.Errorf("LeakageMax = %g, want %g", got, want)
	}
	if got := c.LeakageForState([]bool{false, false}); !approx(got, 10e-12, 1e-18) {
		t.Errorf("leak(00) = %g", got)
	}
	if got := c.LeakageForState([]bool{true, false}); !approx(got, 12e-12, 1e-18) {
		t.Errorf("leak(10) = %g", got)
	}
	if got := c.LeakageForState([]bool{true, true}); !approx(got, 14e-12, 1e-18) {
		t.Errorf("leak(11) = %g", got)
	}
}

// Property: for any input state, state-dependent leakage never exceeds the
// worst case used by the discriminability constraint.
func TestLeakageForStateBounded(t *testing.T) {
	prop := func(a, b, c, d bool) bool {
		cell := &Cell{Function: circuit.Nand, MaxFanin: 4, LeakBase: 30e-12, LeakPerIn: 3e-12}
		return cell.LeakageForState([]bool{a, b, c, d}) <= cell.LeakageMax()+1e-20
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAnnotate(t *testing.T) {
	c := mustC17(t)
	l := Default()
	a, err := Annotate(c, l)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	for _, id := range c.Inputs {
		if a.Cell[id] != nil || a.Peak[id] != 0 {
			t.Errorf("input gate %d should have no electrical data", id)
		}
	}
	for _, id := range c.LogicGates() {
		if a.Cell[id] == nil {
			t.Fatalf("gate %d unmapped", id)
		}
		if a.Cell[id].Name != "NAND2" {
			t.Errorf("gate %d mapped to %s, want NAND2", id, a.Cell[id].Name)
		}
		if a.Peak[id] <= 0 || a.LeakMax[id] <= 0 || a.Delay[id] <= 0 || a.Rg[id] <= 0 {
			t.Errorf("gate %d has non-positive electrical data", id)
		}
	}
	// g3 has two fanouts, g5 has none beyond PO: loaded delay must differ.
	g3, _ := c.GateByName("g3")
	g5, _ := c.GateByName("g5")
	if a.Delay[g3.ID] <= a.Delay[g5.ID] {
		t.Errorf("loaded delay of g3 (%g) should exceed g5 (%g)", a.Delay[g3.ID], a.Delay[g5.ID])
	}
}

func TestAnnotateUnmappable(t *testing.T) {
	b := circuit.NewBuilder("wide")
	var fan []string
	for i := 0; i < 12; i++ {
		n := "i" + string(rune('a'+i))
		b.AddInput(n)
		fan = append(fan, n)
	}
	b.AddGate("g", circuit.Xor, fan...)
	b.MarkOutput("g")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Annotate(c, Default()); err == nil {
		t.Error("want mapping error for 12-input XOR")
	}
}

func TestTotals(t *testing.T) {
	c := mustC17(t)
	a, err := Annotate(c, Default())
	if err != nil {
		t.Fatal(err)
	}
	gates := c.LogicGates()
	leak := a.TotalLeakageMax(gates)
	area := a.TotalArea(gates)
	nand2, _ := Default().CellFor(circuit.Nand, 2)
	if !approx(leak, 6*nand2.LeakageMax(), 1e-18) {
		t.Errorf("TotalLeakageMax = %g, want %g", leak, 6*nand2.LeakageMax())
	}
	if !approx(area, 6*nand2.Area, 1e-9) {
		t.Errorf("TotalArea = %g, want %g", area, 6*nand2.Area)
	}
}

func TestLibraryRoundTrip(t *testing.T) {
	l := Default()
	var sb strings.Builder
	if err := WriteLibrary(&sb, l); err != nil {
		t.Fatalf("WriteLibrary: %v", err)
	}
	l2, err := ReadLibrary(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadLibrary: %v\n%s", err, sb.String())
	}
	if l2.Name != l.Name || l2.VDD != l.VDD {
		t.Errorf("header: %s/%g vs %s/%g", l2.Name, l2.VDD, l.Name, l.VDD)
	}
	a, b := l.Cells(), l2.Cells()
	if len(a) != len(b) {
		t.Fatalf("cell count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Errorf("cell %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReadLibraryErrors(t *testing.T) {
	cases := map[string]string{
		"no header":      "cell X NAND fanin 2 area 1 delay 1 peak 1 rg 1\n",
		"bad vdd":        "library l vdd five\n",
		"bad directive":  "library l vdd 5\nwibble\n",
		"bad function":   "library l vdd 5\ncell X MUX fanin 2 area 1 delay 1 peak 1 rg 1\n",
		"input function": "library l vdd 5\ncell X INPUT fanin 1 area 1 delay 1 peak 1 rg 1\n",
		"odd kv":         "library l vdd 5\ncell X NAND fanin 2 area\n",
		"bad value":      "library l vdd 5\ncell X NAND fanin 2 area one delay 1 peak 1 rg 1\n",
		"unknown attr":   "library l vdd 5\ncell X NAND fanin 2 weight 3\n",
		"bad fanin":      "library l vdd 5\ncell X NAND fanin two area 1 delay 1 peak 1 rg 1\n",
		"empty":          "",
		"short header":   "library l\n",
	}
	for name, src := range cases {
		if _, err := ReadLibrary(strings.NewReader(src)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func approx(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}
