package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/experiments"
	"iddqsyn/internal/standard"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current results")

const goldenPath = "testdata/golden.json"

// goldenRecord pins one optimizer run across commits: every cost term as
// its exact IEEE-754 bit pattern, a digest of the final gate groups, and
// the run's bookkeeping. Any refactor that shifts a single low-order bit
// of a Table 1 figure fails here.
type goldenRecord struct {
	CostBits     map[string]string `json:"cost_bits,omitempty"`
	Separation   int               `json:"separation,omitempty"`
	Size         int               `json:"size,omitempty"`
	Modules      int               `json:"modules"`
	GroupsSHA256 string            `json:"groups_sha256,omitempty"`
	Generations  int               `json:"generations,omitempty"`
	Evaluations  int               `json:"evaluations,omitempty"`
	History      int               `json:"history,omitempty"`
	Steps        int               `json:"steps,omitempty"`
	Final        [][]string        `json:"final,omitempty"`
}

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func groupsDigest(t *testing.T, groups any) string {
	t.Helper()
	data, err := json.Marshal(groups)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func synthRecord(t *testing.T, res *core.Result) goldenRecord {
	t.Helper()
	cv := res.Costs
	rec := goldenRecord{
		CostBits: map[string]string{
			"log_area":       bits(cv.LogArea),
			"delay_overhead": bits(cv.DelayOverhead),
			"log_separation": bits(cv.LogSeparation),
			"test_time":      bits(cv.TestTime),
			"modules":        bits(cv.Modules),
			"sensor_area":    bits(cv.SensorArea),
			"dbic":           bits(cv.DBIc),
			"dnominal":       bits(cv.DNominal),
			"weighted":       bits(res.Partition.Cost()),
		},
		Separation:   cv.Separation,
		Modules:      res.Partition.NumModules(),
		GroupsSHA256: groupsDigest(t, res.Partition.Groups()),
	}
	if ev := res.Evolution; ev != nil {
		rec.CostBits["best_cost"] = bits(ev.BestCost)
		rec.Generations = ev.Generations
		rec.Evaluations = ev.Evaluations
		rec.History = len(ev.History)
	}
	return rec
}

func synth(t *testing.T, name string, opt core.Options) *core.Result {
	t.Helper()
	c := circuits.C17()
	if name != "c17" {
		c = circuits.MustISCAS85Like(name)
	}
	res, err := core.SynthesizeContext(context.Background(), c, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func generations(n int) *evolution.Params {
	p := evolution.DefaultParams()
	p.MaxGenerations = n
	return &p
}

// chainStartRecords pins the §4.2 chain-start groups of res's circuit at
// module size 8 and at the estimated module size, for seeds 1-3.
func chainStartRecords(t *testing.T, got map[string]goldenRecord, res *core.Result) {
	t.Helper()
	p := res.Partition
	sizes := map[string]int{
		"size8":   8,
		"sizeest": standard.EstimateModuleSize(res.Estimator, p.W, p.Cons),
	}
	for label, size := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			groups := standard.ChainStartPartition(res.Circuit, size, rand.New(rand.NewSource(seed)))
			got[fmt.Sprintf("%s-chainstart-%s-seed%d", res.Circuit.Name, label, seed)] = goldenRecord{
				Size:         size,
				Modules:      len(groups),
				GroupsSHA256: groupsDigest(t, groups),
			}
		}
	}
}

// table1Prefix names the records of the Table 1 rows, which -short skips.
const table1Prefix = "table1-"

// table1Records pins every Table 1 row at cmd/table1's budget: each float
// field as its bit pattern, the module count and the run's bookkeeping.
func table1Records(t *testing.T, got map[string]goldenRecord) {
	t.Helper()
	rows, err := experiments.Table1(context.Background(), experiments.Table1Config{})
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	for _, r := range rows {
		got[table1Prefix+r.Circuit] = goldenRecord{
			CostBits: map[string]string{
				"area_evolution":  bits(r.AreaEvolution),
				"area_standard":   bits(r.AreaStandard),
				"area_overhead":   bits(r.AreaOverhead),
				"delay_evolution": bits(r.DelayEvolution),
				"delay_standard":  bits(r.DelayStandard),
				"test_evolution":  bits(r.TestEvolution),
				"test_standard":   bits(r.TestStandard),
				"cost_evolution":  bits(r.CostEvolution),
				"cost_standard":   bits(r.CostStandard),
			},
			Modules:     r.Modules,
			Generations: r.Generations,
			Evaluations: r.Evaluations,
		}
	}
}

// TestGolden compares the optimizer's results against the committed
// goldens. Regenerate with `go test ./internal/core -run Golden -update`,
// and only with a stated reason: a changed golden means Table 1 moved.
func TestGolden(t *testing.T) {
	// Go may fuse multiply-adds on arm64, ppc64le and s390x, which changes
	// low-order bits; the goldens are recorded on amd64, which never fuses.
	if runtime.GOARCH != "amd64" && !*update {
		t.Skipf("goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	got := map[string]goldenRecord{}
	got["c17-default"] = synthRecord(t, synth(t, "c17", core.Options{}))
	fine := synth(t, "c880", core.Options{Evolution: generations(20), ModuleSize: 8})
	got["c880-size8-gens20"] = synthRecord(t, fine)
	got["c1908-default-gens10"] = synthRecord(t, synth(t, "c1908", core.Options{Evolution: generations(10)}))
	got["c880-standard-k"] = synthRecord(t, synth(t, "c880", core.Options{
		Method: core.MethodStandard, Modules: fine.Partition.NumModules(),
	}))

	for _, tc := range experiments.Table1Circuits {
		std := synth(t, tc.Name, core.Options{Method: core.MethodStandard, Modules: tc.PaperK})
		got[tc.Name+"-standard-paperk"] = synthRecord(t, std)
		if tc.Name == "c1908" || tc.Name == "c7552" {
			chainStartRecords(t, got, std)
		}
	}

	tr, err := experiments.C17Trace(context.Background(), 1)
	if err != nil {
		t.Fatalf("C17Trace: %v", err)
	}
	got["c17-trace-seed1"] = goldenRecord{
		CostBits:     map[string]string{"final_cost": bits(tr.FinalCost), "optimum_cost": bits(tr.OptimumCost)},
		Modules:      len(tr.Final),
		GroupsSHA256: groupsDigest(t, tr.Final),
		Steps:        len(tr.Steps),
		Final:        tr.Final,
	}
	if testing.Short() {
		if *update {
			t.Fatal("-update needs the Table 1 rows, which -short skips")
		}
	} else {
		table1Records(t, got)
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := map[string]goldenRecord{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok && testing.Short() && strings.HasPrefix(name, table1Prefix) {
			continue
		}
		if !ok {
			t.Errorf("%s: golden case no longer produced", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			gj, _ := json.MarshalIndent(g, "", "  ")
			wj, _ := json.MarshalIndent(w, "", "  ")
			t.Errorf("%s drifted from the golden:\ngot  %s\nwant %s", name, gj, wj)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no golden recorded (regenerate with -update)", name)
		}
	}
}
