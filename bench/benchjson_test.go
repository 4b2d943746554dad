package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root is the contract the driver
// reads; the tables in this package are what the program reports. They
// must say the same thing.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, program reports %d", kind, len(declared), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %+v, program has %+v", kind, i, m, d)
			}
			if seen[d.name] {
				t.Errorf("%s: %s is declared twice", kind, d.name)
			}
			seen[d.name] = true
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound):
				t.Errorf("%s: bound %v declared, program has %v", d.name, m.Bound, d.bound)
			case bounded && d.bound > 0.25:
				t.Errorf("%s: bound %v is above the contract's 0.25", d.name, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric carries a bound", d.name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
