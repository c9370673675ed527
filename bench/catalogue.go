package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/bench/workload"
)

// metricDef is one named metric with its unit and which way is better.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd and perLayer are the contract's metric lists, in print order:
// what every untraced run reports on every workload (with the bound by which
// each may worsen) and what a traced run reports (a metric a workload does
// not exercise reads 0 there: that layer did no work). BENCHMARK.json at the
// repository root is the one place they are defined; loadCatalogue reads it.
var endToEnd, perLayer []metricDef

// extraDef is an end-to-end metric only some workloads can report — a high
// percentile needs the samples, disk_amp a disk — so it cannot be part of the
// every-workload contract. -out files carry the extras and -compare judges
// them like the contract's metrics, on the workloads that report them.
type extraDef struct {
	metricDef          // Bound 0: a diagnostic, printed without a verdict
	on        []string // the workloads that report it; nil: all
	noRise    bool     // any rise is a breach
}

func (d extraDef) reportedOn(name string) bool {
	return d.on == nil || slices.Contains(d.on, name)
}

var extras = []extraDef{
	{metricDef: metricDef{Name: "query_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25}, on: []string{"dashboard"}},
	{metricDef: metricDef{Name: "mutate_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25}, on: []string{"ingest"}},
	{metricDef: metricDef{Name: "disk_amp", Unit: "ratio", Better: "lower", Bound: 0.02}, on: []string{"ingest"}},
	{metricDef: metricDef{Name: "fail_ratio", Unit: "ratio", Better: "lower"}, noRise: true},
	{metricDef: metricDef{Name: "late_100ms_ratio", Unit: "ratio", Better: "lower"}, on: []string{"dashboard"}},
	{metricDef: metricDef{Name: "sched_lag_p99_ms", Unit: "ms", Better: "lower"}, on: []string{"dashboard"}},
	{metricDef: metricDef{Name: "fire_lag_p99_ms", Unit: "ms", Better: "lower"}, on: []string{"dashboard"}},
}

// untracedDefs lists what an untraced run of the workload prints: the
// contract's metrics, then the extras it reports.
func untracedDefs(name string) []metricDef {
	defs := slices.Clone(endToEnd)
	for _, d := range extras {
		if d.reportedOn(name) {
			defs = append(defs, d.metricDef)
		}
	}
	return defs
}

// loadCatalogue reads the metric lists from BENCHMARK.json and checks that
// the file names the workloads this harness runs.
func loadCatalogue(root string) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workload.Names) {
		return fmt.Errorf("BENCHMARK.json lists workloads %v, the harness runs %v", names, workload.Names)
	}
	endToEnd, perLayer = b.EndToEnd, b.PerLayer
	return nil
}

// metricValue is one reported number in the contract's wire form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render pairs each definition with its measured value; a metric the run
// did not produce reads 0.
func render(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
