package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step) and adds
// each end-to-end metric's regression bound.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; an "op" is the workload's unit of work: one
// synthesis, one Table 1 row, or one served job from submission to its
// terminal event.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_s", "s", "lower"},
	{"final_cost_mean", "cost", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's numbers, one group per module of the
// program. Per-op values are means over the traced ops (optimizer
// workloads) or over the served fresh jobs (serve workloads); "ns" values
// come from replaying the named public call on a partition the workload
// produced. The serve.* metrics are 0 on workloads that do not go
// through the service.
var perLayer = []metricDef{
	{"estimate.evalmodule.calls", "count", "lower"},
	{"estimate.evalmodule.busy_s", "s", "lower"},
	{"estimate.evalmodule.gates_mean", "gates", "lower"},
	{"estimate.evalmodule.ns", "ns", "lower"},
	{"estimate.separation.ns", "ns", "lower"},
	{"estimate.maxcurrent.ns", "ns", "lower"},
	{"estimate.activity.ns", "ns", "lower"},
	{"estimate.bicdelay.ns", "ns", "lower"},
	{"estimate.build_s", "s", "lower"},

	{"partition.clone.ns", "ns", "lower"},
	{"partition.move.ns", "ns", "lower"},
	{"partition.recompute.ns", "ns", "lower"},
	{"partition.modules_mean", "modules", "lower"},
	{"partition.cost.busy_s", "s", "lower"},

	{"standard.chainstart.ns", "ns", "lower"},
	{"standard.modulesize.ns", "ns", "lower"},
	{"standard.partitionk_s", "s", "lower"},
	{"standard.area_overhead_pct", "%", "higher"},

	{"evolution.generations", "count", "lower"},
	{"evolution.evaluations", "count", "lower"},
	{"evolution.evals_per_s", "1/s", "higher"},
	{"evolution.evaluate_s", "s", "lower"},
	{"evolution.select_s", "s", "lower"},
	{"evolution.startpop_s", "s", "lower"},
	{"evolution.mutate_s", "s", "lower"},
	{"evolution.mutation.applied_ratio", "ratio", "higher"},
	{"evolution.montecarlo.applied_ratio", "ratio", "higher"},
	{"evolution.mutation.accepted_ratio", "ratio", "higher"},
	{"evolution.infeasible_ratio", "ratio", "lower"},

	{"core.annotate_s", "s", "lower"},
	{"core.optimize_s", "s", "lower"},
	{"core.audit_s", "s", "lower"},
	{"core.chip_s", "s", "lower"},
	{"core.alloc_mb", "MB", "lower"},

	{"serve.submit_rtt_s", "s", "lower"},
	{"serve.events_rtt_s", "s", "lower"},
	{"serve.admit_s", "s", "lower"},
	{"serve.queue_wait_p50_s", "s", "lower"},
	{"serve.queue_wait_p90_s", "s", "lower"},
	{"serve.journal_start_s", "s", "lower"},
	{"serve.attempt_s", "s", "lower"},
	{"serve.publish_s", "s", "lower"},
	{"serve.sse_tail_s", "s", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.journal_bytes_per_job", "bytes", "lower"},

	{"trace_coverage_pct", "%", "higher"},
	{"trace_overhead_pct", "%", "lower"},
}

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &bf, nil
}

// catalog returns the metric definitions a run reports.
func catalog(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}
