package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runRecord is one run as a result file stores it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// resultFile is what -out writes and -compare reads: the machine the
// numbers come from, then every run.
type resultFile struct {
	Machine machine     `json:"machine"`
	Seconds int         `json:"seconds"`
	Quick   bool        `json:"quick,omitempty"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload — `repeat` untraced runs, then one traced
// run — each as a fresh process of this same binary, so that runs share
// no heap, no GC state and no resident-set high-water mark, exactly as
// when the driver invokes them one by one.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Machine: describeMachine("."), Seconds: o.seconds, Quick: o.quick}
	incorrect := false
	for _, w := range workloads {
		for rep := 0; rep <= o.repeat; rep++ {
			rec := runRecord{Workload: w.name, Seed: o.seed + int64(rep), Trace: 0}
			if rep == o.repeat { // the traced run reuses the first seed
				rec.Seed, rec.Trace = o.seed, 1
			}
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(rec.Seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(rec.Trace),
			}
			if o.quick {
				args = append(args, "-quick")
			}
			if o.out != "" {
				args = append(args, "-out", o.out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if res, ok := lastResult(stdout); ok {
				rec.result = res
				file.Runs = append(file.Runs, rec)
				incorrect = incorrect || !res.Correct
			} else if err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, rec.Trace, err)
			} else {
				return fmt.Errorf("%s (trace %d): no result line", w.name, rec.Trace)
			}
		}
	}
	printSummary(os.Stdout, file)
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.out, "results.json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// lastResult parses the last line of a run's standard output.
func lastResult(stdout []byte) (result, bool) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if json.Unmarshal(last, &res) != nil || res.Metrics == nil {
		return result{}, false
	}
	return res, true
}

// samplesOf collects one metric's values across the runs of a workload
// at a trace level.
func (f resultFile) samplesOf(workload string, trace int, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// printSummary prints every metric of every workload by name, with its
// unit, the direction that is better, its bound, the number of runs
// behind it, their median and (given several runs) their spread.
func printSummary(w io.Writer, f resultFile) {
	mach, _ := json.Marshal(f.Machine)
	fmt.Fprintf(w, "machine %s\n", mach)
	if f.Quick {
		fmt.Fprintln(w, "QUICK RUN: smoke test of the code paths, not a measurement")
	}
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n== %s — %s\n", wl.name, wl.why)
		for _, part := range []struct {
			title string
			trace int
			defs  []metricDef
		}{
			{"end to end (tracing off)", 0, endToEnd},
			{"per layer (traced run and probes; 0 = layer bypassed)", 1, perLayer},
		} {
			fmt.Fprintf(w, "-- %s\n", part.title)
			fmt.Fprintf(w, "%-38s %14s %-6s %-7s %6s %4s %8s\n", "metric", "median", "unit", "better", "bound", "runs", "spread")
			for _, d := range part.defs {
				xs := f.samplesOf(wl.name, part.trace, d.name)
				if len(xs) == 0 {
					continue
				}
				bound, sp := "-", "-"
				if part.trace == 0 {
					bound = fmt.Sprintf("%.0f%%", 100*d.bound)
				}
				if len(xs) > 1 {
					sp = fmt.Sprintf("%.2f%%", 100*spread(xs))
				}
				fmt.Fprintf(w, "%-38s %14.4f %-6s %-7s %6s %4d %8s\n",
					d.name, median(xs), d.unit, d.better, bound, len(xs), sp)
			}
		}
	}
}
