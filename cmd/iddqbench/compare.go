package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runKey identifies one workload's run across result files.
type runKey struct {
	workload string
	seed     int64
}

// verdict is the comparison of one end-to-end metric on one workload.
type verdict struct {
	Workload, Metric string
	Pairs, Wins      int     // Wins: pairs where B reads better than A
	MedA, MedB       float64 // medians
	Worse            float64 // (B − A)/A, signed so that positive is worse
	SpreadA, SpreadB float64 // quartile distance over median, per side
	Bound            float64
	Verdict          string
}

// runCompare implements -compare A.json… -- B.json…: A is the parent,
// B the change. Runs pair up by workload and seed. For each end-to-end
// metric and workload it reports:
//
//   - unresolved: either side's spread exceeds the metric's bound (unless
//     every B run is better than every A run, which is a gain);
//   - regression: B's median is worse than A's by more than the bound;
//   - gain: B wins at least 9 of every 10 pairs and the medians differ by
//     more than A's quartile distance;
//   - same: otherwise.
//
// The exit status is 1 when any metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "iddqbench: usage: -compare A.json… -- B.json…")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "iddqbench:", err)
		return 1
	}
	a, err := loadRuns(args[:sep])
	if err == nil {
		var b map[runKey]workloadResult
		if b, err = loadRuns(args[sep+1:]); err == nil {
			return printVerdicts(stdout, compareRuns(bf, a, b))
		}
	}
	fmt.Fprintln(stderr, "iddqbench:", err)
	return 1
}

func loadRuns(paths []string) (map[runKey]workloadResult, error) {
	out := map[runKey]workloadResult{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Format != "iddqbench-result" || rf.Trace {
			return nil, fmt.Errorf("%s: not an end-to-end iddqbench result", p)
		}
		for _, w := range rf.Workloads {
			out[runKey{w.Name, rf.Seed}] = w
		}
	}
	return out, nil
}

func compareRuns(bf *benchmarkFile, a, b map[runKey]workloadResult) []verdict {
	var keys []runKey
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	var out []verdict
	for _, wl := range bf.Workloads {
		for _, def := range bf.EndToEnd {
			var as, bs []float64
			for _, k := range keys {
				if k.workload != wl.Name {
					continue
				}
				ma, oka := a[k].Metrics[def.Name]
				mb, okb := b[k].Metrics[def.Name]
				if oka && okb {
					as, bs = append(as, ma.Value), append(bs, mb.Value)
				}
			}
			if len(as) > 0 {
				v := judge(as, bs, def.Better == "higher", def.Bound)
				v.Workload, v.Metric = wl.Name, def.Name
				out = append(out, v)
			}
		}
	}
	return out
}

// judge compares paired samples as (a[i], b[i]) under a regression bound.
func judge(a, b []float64, higherBetter bool, bound float64) verdict {
	v := verdict{Pairs: len(a), Bound: bound, MedA: quantile(a, 0.5), MedB: quantile(b, 0.5)}
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	v.Worse = sign * (v.MedB - v.MedA) / math.Abs(v.MedA)
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(quantile(xs, 0.5))
	}
	v.SpreadA, v.SpreadB = spread(a), spread(b)
	allBetter := true
	for i := range a {
		if sign*(b[i]-a[i]) < 0 {
			v.Wins++
		}
		for j := range b {
			allBetter = allBetter && sign*(b[j]-a[i]) < 0
		}
	}
	qa1, qa3 := quartiles(a)
	switch {
	case math.Max(v.SpreadA, v.SpreadB) > bound && allBetter:
		v.Verdict = "gain (every run better)"
	case math.Max(v.SpreadA, v.SpreadB) > bound:
		v.Verdict = "unresolved"
	case v.Worse > bound:
		v.Verdict = "regression"
	case 10*v.Wins >= 9*v.Pairs && math.Abs(v.MedB-v.MedA) > qa3-qa1:
		v.Verdict = "gain"
	default:
		v.Verdict = "same"
	}
	return v
}

func printVerdicts(w io.Writer, vs []verdict) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-16s %5s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "pairs", "median A", "median B", "worse", "sprd A", "sprd B", "bound", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-16s %-16s %2d/%-2d %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %6.1f%%  %s\n",
			v.Workload, v.Metric, v.Wins, v.Pairs, v.MedA, v.MedB,
			100*v.Worse, 100*v.SpreadA, 100*v.SpreadB, 100*v.Bound, v.Verdict)
		if v.Verdict == "regression" {
			code = 1
		}
	}
	return code
}
