package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json and the harness agree on
// the workloads, their reasons, and every metric's name and unit.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if wl, ok := workloads[w.Name]; !ok || wl.why != w.Why {
			t.Errorf("workload %q: harness has %q", w.Name, wl.why)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness prints %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %q: unit %q in BENCHMARK.json, %q in the harness", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndUnits)
	check("per_layer", doc.PerLayer, perLayerUnits)
}
