package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict judges one end-to-end metric on one workload between two
// sets of runs, a (the reference) and b:
//
//	unresolved  the run-to-run spread of either side is wider than the
//	            bound, so the bound cannot be checked (never for setup_s,
//	            whose spread the contract does not judge)
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better than a's by more than both sides'
//	            own spread
//	same        anything else
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return "same", 0
		}
		return "unresolved", 0
	}
	// worsening is positive when b is worse, as a share of a's median.
	worsening := (mb - ma) / ma
	if d.better == "higher" {
		worsening = -worsening
	}
	noise := max(spread(a), spread(b))
	switch {
	case noise > d.bound && d.name != "setup_s": // the contract checks setup_s for drift only
		return "unresolved", worsening
	case worsening > d.bound:
		return "worse", worsening
	case worsening < 0 && -worsening > noise:
		return "better", worsening
	}
	return "same", worsening
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints one row per workload and end-to-end metric, and
// fails if any row is worse or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	ma, _ := json.Marshal(a.Machine)
	mb, _ := json.Marshal(b.Machine)
	fmt.Fprintf(w, "a: %s\n   %s\nb: %s\n   %s\n", pathA, ma, pathB, mb)
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "change", "bound", "spread a", "spread b", "verdict")
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.samplesOf(wl.name, 0, d.name), b.samplesOf(wl.name, 0, d.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, worsening := verdict(d, xa, xb)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %+7.2f%% %5.0f%% %7.2f%% %7.2f%%  %s\n",
				wl.name, d.name, median(xa), median(xb),
				100*worsening, 100*d.bound, 100*spread(xa), 100*spread(xb), v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse or unresolved (change is positive when b is worse)", bad)
	}
	return nil
}
