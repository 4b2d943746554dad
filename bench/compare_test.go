package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdictAppliesDirectionAndBound(t *testing.T) {
	lower := metricDef{name: "tag_p50_us", unit: "us", better: "lower", bound: 0.05}
	higher := metricDef{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.05}
	steady := func(mid float64) []float64 { return []float64{mid * 0.998, mid, mid * 1.002, mid * 0.999, mid * 1.001} }
	noisy := func(mid float64) []float64 { return []float64{mid * 0.9, mid, mid * 1.1, mid * 0.95, mid * 1.05} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady(100), steady(100.5), "same"},
		{"latency up 10%", lower, steady(100), steady(110), "worse"},
		{"latency down 10%", lower, steady(100), steady(90), "better"},
		{"throughput down 10%", higher, steady(1000), steady(900), "worse"},
		{"throughput up 10%", higher, steady(1000), steady(1100), "better"},
		{"within the bound", lower, steady(100), steady(104), "same"},
		{"too noisy to tell", lower, noisy(100), steady(100), "unresolved"},
		{"single runs", lower, []float64{100}, []float64{120}, "worse"},
	} {
		if got, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// A zero bound tolerates nothing: success_ratio may not fall at all.
	exact := metricDef{name: "success_ratio", unit: "ratio", better: "higher", bound: 0}
	if got, _ := verdict(exact, []float64{1, 1, 1}, []float64{1, 1, 1}); got != "same" {
		t.Errorf("all ones: %s, want same", got)
	}
	if got, _ := verdict(exact, []float64{1, 1, 1}, []float64{0.99, 0.99, 0.99}); got != "worse" {
		t.Errorf("lower success ratio: %s, want worse", got)
	}
}

func TestCompareFilesPrintsOneRowPerWorkloadAndMetric(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		var f resultFile
		for _, w := range workloads {
			for seed := int64(1); seed <= 3; seed++ {
				m := map[string]metricValue{}
				for _, d := range endToEnd {
					m[d.name] = metricValue{Value: 100 + float64(seed)*0.1, Unit: d.unit}
				}
				m["success_ratio"] = metricValue{Value: 1, Unit: "ratio"}
				if w.name == "sim-tag" {
					m["tag_p50_us"] = metricValue{Value: (100 + float64(seed)*0.1) * scale, Unit: "us"}
				}
				f.Runs = append(f.Runs, runRecord{Workload: w.name, Seed: seed, result: result{Correct: true, Attempted: 1, Metrics: m}})
			}
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slower := write("a.json", 1), write("same.json", 1), write("slower.json", 1.3)

	var out bytes.Buffer
	if err := compareFiles(&out, a, same); err != nil {
		t.Fatalf("identical sets: %v\n%s", err, out.String())
	}
	if rows := strings.Count(out.String(), " same\n"); rows != len(workloads)*len(endToEnd) {
		t.Fatalf("%d rows say same, want %d\n%s", rows, len(workloads)*len(endToEnd), out.String())
	}
	out.Reset()
	if err := compareFiles(&out, a, slower); err == nil {
		t.Fatalf("a 30%% slower tag_p50_us on sim-tag passed\n%s", out.String())
	}
	if strings.Count(out.String(), " worse\n") != 1 {
		t.Fatalf("want exactly one worse row\n%s", out.String())
	}
}

func TestLastResultReadsTheLastLine(t *testing.T) {
	stdout := []byte("noise\n{\"correct\":true,\"attempted\":7,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n\n")
	res, ok := lastResult(stdout)
	if !ok || !res.Correct || res.Attempted != 7 || res.Metrics["setup_s"].Value != 0.5 {
		t.Fatalf("parsed %+v, ok=%v", res, ok)
	}
	if _, ok := lastResult([]byte("no json here\n")); ok {
		t.Fatal("garbage parsed as a result")
	}
}
