package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, which tells
// whoever runs the benchmark what to run and how to judge it, in step
// with the metrics and workloads this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	// The floor is the program's own refinement of a bound; the file
	// carries only the relative bound.
	strip := func(ms []metricDef) []metricDef {
		out := slices.Clone(ms)
		for i := range out {
			out[i].Floor = 0
		}
		return out
	}
	if got, want := spec.EndToEnd, strip(e2eMetrics); !slices.Equal(got, want) {
		t.Errorf("end_to_end\n file    %+v\n program %+v", got, want)
	}
	if got, want := spec.PerLayer, layerMetrics; !slices.Equal(got, want) {
		t.Errorf("per_layer\n file    %+v\n program %+v", got, want)
	}
}
