package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/bench/loadgen"
	"repro/bench/workload"
)

// exactCounts are the per-layer counts a seed fixes: the same seed, sizes
// and code must reproduce them to the last digit.
var exactCounts = []string{
	"core.domtests_per_query", "core.candidates_per_query", "service.rejected",
	"shard.r2_floats_per_query", "shard.r2_messages_per_query",
}

// aggregate folds several runs of one workload into one result: each
// metric's median, with every run's own values kept beside it.
func aggregate(runs []*runResult) *runResult {
	if len(runs) == 1 {
		return runs[0]
	}
	out := &runResult{Metrics: make(map[string]float64), Oracle: runs[0].Oracle}
	values := make(map[string][]float64)
	for _, r := range runs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Notes = append(out.Notes, r.Notes...)
		out.Runs = append(out.Runs, r.Metrics)
		for name, v := range r.Metrics {
			values[name] = append(values[name], v)
		}
	}
	for name, vs := range values {
		out.Metrics[name] = loadgen.Median(vs)
	}
	return out
}

func readReport(path string) (*allReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r allReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is by what share of a the metric got worse from a to b
// (negative: it improved), given which direction is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and metric, how b differs from a and
// whether the difference stays inside the metric's bound. It returns an error
// — a non-zero exit — on any breach: a metric worse by more than its bound or
// missing from either file, a failure ratio that rose, or an exact count that
// moved.
func compareFiles(pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	breaches := 0
	fmt.Printf("%-10s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, w := range workload.Names {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa.EndToEnd == nil || wb.EndToEnd == nil {
			fmt.Printf("%-10s missing from one of the files\n", w)
			breaches++
			continue
		}
		judge := func(d metricDef, noRise bool) {
			va, oka := wa.EndToEnd.Metrics[d.Name]
			vb, okb := wb.EndToEnd.Metrics[d.Name]
			worse := 0.0
			if va != 0 {
				worse = worsening(va, vb, d.Better)
			}
			bound, verdict, breach := "-", "(no bound)", false
			switch {
			case !oka || !okb:
				verdict, breach = "missing from one of the files", true
			case noRise:
				bound, verdict, breach = "0%", "must not rise", vb > va
			case d.Bound > 0:
				// A bounded metric is never 0: one that reads 0 was not measured.
				bound, verdict = fmt.Sprintf("%.0f%%", d.Bound*100), "beyond the bound"
				breach = worse > d.Bound || va == 0 || vb == 0
			}
			if breach {
				verdict = "BREACH: " + verdict
				breaches++
			} else if bound != "-" {
				verdict = "ok"
			}
			fmt.Printf("%-10s %-24s %14.4f %14.4f %+8.1f%% %7s  %s\n", w, d.Name, va, vb, worse*100, bound, verdict)
		}
		for _, d := range endToEnd {
			judge(d, false)
		}
		for _, d := range extras {
			if d.reportedOn(w) {
				judge(d.metricDef, d.noRise)
			}
		}
		if wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		if a.Seed != b.Seed || a.Seconds != b.Seconds {
			fmt.Printf("%-10s exact counts not compared: the files differ in seed or seconds\n", w)
			continue
		}
		for _, name := range exactCounts {
			va, vb := wa.PerLayer.Metrics[name], wb.PerLayer.Metrics[name]
			if va == 0 && vb == 0 {
				continue // the workload does not exercise that layer
			}
			verdict := "identical"
			if va != vb {
				verdict = "BREACH (exact count moved)"
				breaches++
			}
			fmt.Printf("%-10s %-36s %14.4f %14.4f  %s\n", w, name, va, vb, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breaches", breaches)
	}
	return nil
}
