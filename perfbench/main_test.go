package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics the binary prints in
// step with the ones BENCHMARK.json declares, units included.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]string) {
		seen := map[string]bool{}
		for _, m := range declared {
			seen[m.Name] = true
			if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s): printed with unit %q", kind, m.Name, m.Unit, unit)
			}
		}
		for name := range printed {
			if !seen[name] {
				t.Errorf("%s metric %s is printed but not declared", kind, name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
}

func TestPlanIsFixedWork(t *testing.T) {
	cases := []struct {
		seconds, pass float64
		trace         bool
		u, tr         int
	}{
		{20, 0.5, false, 40, 0},
		{20, 0.5, true, 20, maxTracedPasses},
		{20, 3.5, true, 3, 3},
		{20, 10, true, 1, 1},
		{1, 10, false, 1, 0},
	}
	for _, c := range cases {
		u, tr := newReport().plan(runConfig{seconds: c.seconds, trace: c.trace}, c.pass)
		if u != c.u || tr != c.tr {
			t.Errorf("plan(%g s, %g s/pass, trace=%v) = %d+%d passes, want %d+%d", c.seconds, c.pass, c.trace, u, tr, c.u, c.tr)
		}
	}
}
