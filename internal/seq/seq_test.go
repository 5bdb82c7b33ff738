package seq

import (
	"context"
	"strings"
	"testing"

	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
)

const s27Bench = `# s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = OR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
G17 = NOT(G11)
`

func TestReadBenchS27(t *testing.T) {
	s, err := ReadBench(strings.NewReader(s27Bench), "x")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "s27" {
		t.Errorf("name = %q", s.Name)
	}
	if s.NumFFs() != 3 {
		t.Fatalf("FFs = %d, want 3", s.NumFFs())
	}
	if got := len(s.PrimaryInputs()); got != 4 {
		t.Errorf("PIs = %d, want 4", got)
	}
	if got := len(s.PrimaryOutputs()); got != 1 {
		t.Errorf("POs = %d, want 1", got)
	}
	// The core sees PIs + FFs as inputs.
	if got := len(s.Comb.Inputs); got != 7 {
		t.Errorf("core inputs = %d, want 7", got)
	}
	// G10, G11, G13 must be output-marked (PPOs); G17 the true PO.
	for _, name := range []string{"G10", "G11", "G13"} {
		g, ok := s.Comb.GateByName(name)
		if !ok || !s.Comb.IsOutput(g.ID) || !s.IsPPO(g.ID) {
			t.Errorf("%s should be an output-marked PPO", name)
		}
	}
	g17, _ := s.Comb.GateByName("G17")
	if s.IsPPO(g17.ID) {
		t.Error("G17 is a true PO, not a PPO")
	}
	// FF outputs are PPIs.
	for _, name := range []string{"G5", "G6", "G7"} {
		g, ok := s.Comb.GateByName(name)
		if !ok || !s.IsPPI(g.ID) {
			t.Errorf("%s should be a PPI", name)
		}
	}
}

func TestReadBenchDFFFeedingOutput(t *testing.T) {
	// A DFF whose data net is also a true PO must not be double-marked.
	src := `INPUT(a)
OUTPUT(y)
q = DFF(y)
y = NAND(a, q)
`
	s, err := ReadBench(strings.NewReader(src), "loop")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFFs() != 1 {
		t.Fatalf("FFs = %d", s.NumFFs())
	}
	// y is both a PO (observed) and the FF's PPO; PrimaryOutputs treats
	// PPO-fed gates as pseudo only, so y is not listed as a true PO here
	// (it feeds the FF) — the design still has the output marked in the
	// core.
	y, _ := s.Comb.GateByName("y")
	if !s.Comb.IsOutput(y.ID) || !s.IsPPO(y.ID) {
		t.Error("y must stay output-marked and be the FF's PPO")
	}
}

func TestReadBenchErrors(t *testing.T) {
	cases := map[string]string{
		"malformed dff":  "INPUT(a)\nOUTPUT(y)\nq = DFF y\ny = NOT(a)\n",
		"two-input dff":  "INPUT(a)\nOUTPUT(y)\nq = DFF(a, y)\ny = NOT(a)\n",
		"undefined data": "INPUT(a)\nOUTPUT(y)\nq = DFF(zzz)\ny = NAND(a, q)\n",
	}
	for name, src := range cases {
		if _, err := ReadBench(strings.NewReader(src), "x"); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestWriteBenchRoundTrip(t *testing.T) {
	s1, err := ReadBench(strings.NewReader(s27Bench), "x")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBench(&sb, s1); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadBench(strings.NewReader(sb.String()), "x")
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, sb.String())
	}
	if s2.NumFFs() != s1.NumFFs() ||
		len(s2.PrimaryInputs()) != len(s1.PrimaryInputs()) ||
		len(s2.PrimaryOutputs()) != len(s1.PrimaryOutputs()) ||
		s2.Comb.NumLogicGates() != s1.Comb.NumLogicGates() {
		t.Errorf("round trip changed the design: %v vs %v", s2, s1)
	}
}

func TestNewValidation(t *testing.T) {
	s, err := ReadBench(strings.NewReader(s27Bench), "x")
	if err != nil {
		t.Fatal(err)
	}
	// PPI not an input.
	g9, _ := s.Comb.GateByName("G9")
	if _, err := New("bad", s.Comb, []FF{{Name: "f", PPI: g9.ID, PPO: s.FFs[0].PPO}}); err == nil {
		t.Error("want error for PPI that is not a core input")
	}
	// PPO not output-marked.
	g14, _ := s.Comb.GateByName("G14")
	if _, err := New("bad", s.Comb, []FF{{Name: "f", PPI: s.FFs[0].PPI, PPO: g14.ID}}); err == nil {
		t.Error("want error for PPO that is not output-marked")
	}
	// Duplicate PPI.
	dup := []FF{s.FFs[0], {Name: "f2", PPI: s.FFs[0].PPI, PPO: s.FFs[1].PPO}}
	if _, err := New("bad", s.Comb, dup); err == nil {
		t.Error("want error for PPI bound twice")
	}
}

func TestGenerateMatchesSpec(t *testing.T) {
	spec := Spec{Name: "t", Inputs: 10, Outputs: 5, FFs: 8, Gates: 200, Depth: 12, Seed: 3}
	s, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.PrimaryInputs()); got != 10 {
		t.Errorf("PIs = %d, want 10", got)
	}
	if s.NumFFs() != 8 {
		t.Errorf("FFs = %d, want 8", s.NumFFs())
	}
	if got := s.Comb.NumLogicGates(); got != 200 {
		t.Errorf("gates = %d, want 200", got)
	}
	if got := s.Comb.Depth(); got != 12 {
		t.Errorf("depth = %d, want 12", got)
	}
	if got := len(s.PrimaryOutputs()); got < 5 {
		t.Errorf("POs = %d, want >= 5", got)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Spec{Name: "x", Inputs: 5, Outputs: 2, FFs: 0, Gates: 50, Depth: 5}); err == nil {
		t.Error("want error for zero FFs")
	}
}

func TestISCAS89Like(t *testing.T) {
	for _, name := range []string{"s27", "s344", "s1196"} {
		s, err := ISCAS89Like(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spec := iscas89Profiles[name]
		if len(s.PrimaryInputs()) != spec.Inputs || s.NumFFs() != spec.FFs ||
			s.Comb.NumLogicGates() != spec.Gates {
			t.Errorf("%s: %v does not match profile %+v", name, s, spec)
		}
	}
	if _, err := ISCAS89Like("s9999"); err == nil {
		t.Error("want error for unknown profile")
	}
	if names := Names89(); len(names) != 6 || names[0] != "s27" {
		t.Errorf("Names89 = %v", names)
	}
}

func TestOrderScanChainImproves(t *testing.T) {
	s, err := ISCAS89Like("s5378")
	if err != nil {
		t.Fatal(err)
	}
	opt, decl := OrderScanChain(s, 6)
	if len(opt.Order) != s.NumFFs() {
		t.Fatalf("order covers %d of %d FFs", len(opt.Order), s.NumFFs())
	}
	seen := map[int]bool{}
	for _, i := range opt.Order {
		if seen[i] {
			t.Fatal("FF visited twice")
		}
		seen[i] = true
	}
	if opt.Length > decl.Length {
		t.Errorf("nearest-neighbour order (%d) worse than declaration order (%d)",
			opt.Length, decl.Length)
	}
	t.Logf("scan chain wiring: declared %d -> ordered %d (%.0f%%)",
		decl.Length, opt.Length, 100*float64(opt.Length)/float64(decl.Length))
}

func TestOrderScanChainEmpty(t *testing.T) {
	s, err := ReadBench(strings.NewReader(s27Bench), "x")
	if err != nil {
		t.Fatal(err)
	}
	s.FFs = nil
	opt, decl := OrderScanChain(s, 4)
	if len(opt.Order) != 0 || decl.Length != 0 {
		t.Error("empty chain should order trivially")
	}
}

func TestScanTestTime(t *testing.T) {
	total, err := ScanTestTime(100, 16, 10e-9, 20e-9, 5e-9)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * (16*10e-9 + 20e-9 + 5e-9)
	if diff := total - want; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("ScanTestTime = %g, want %g", total, want)
	}
	// Scan dominates: the same vector count without scan is much faster.
	noScan, err := ScanTestTime(100, 0, 10e-9, 20e-9, 5e-9)
	if err != nil {
		t.Fatal(err)
	}
	if noScan >= total {
		t.Error("scan loading must add time")
	}
	if _, err := ScanTestTime(0, 16, 1, 1, 1); err == nil {
		t.Error("want error for zero vectors")
	}
	if _, err := ScanTestTime(1, 16, 0, 1, 1); err == nil {
		t.Error("want error for zero clock")
	}
}

// The point of full scan: the whole IDDQ synthesis flow applies to the
// combinational core unchanged.
func TestSynthesizeSequentialCore(t *testing.T) {
	s, err := ISCAS89Like("s641")
	if err != nil {
		t.Fatal(err)
	}
	eprm := evolution.DefaultParams()
	eprm.MaxGenerations = 20
	res, err := core.SynthesizeContext(context.Background(), s.Comb, core.Options{Evolution: &eprm})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partition.Feasible() {
		t.Error("sequential core partition infeasible")
	}
	// Fold the scan economics into the test time.
	total, err := ScanTestTime(100, s.NumFFs(), 10e-9, res.Costs.DBIc, 5e-9)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Error("degenerate scan test time")
	}
	t.Logf("%v: %d modules, 100 scan vectors in %.3g s", s, res.Partition.NumModules(), total)
}
