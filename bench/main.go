// Command bench is the DHARMA benchmark: four workloads, end-to-end
// metrics measured with tracing off, per-layer metrics from a traced
// run and isolated probes, and output verification. See README.md.
//
//	go run . [-quick] [-repeat n] [-out dir]      every workload, every metric
//	go run . -workload w -seed n -seconds s -trace 0|1   one run; last stdout line is its result
//	go run . -compare a.json b.json               judge two result files
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	defaultSeconds = 20 // BENCHMARK.json's run_seconds
	quickSeconds   = 2
	scratchBase    = ".bench_build/tmp" // inside the checkout; git-ignored
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	repeat   int
	out      string
	compare  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as the last line of stdout")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same op list")
	flag.IntVar(&o.seconds, "seconds", 0, fmt.Sprintf("measured seconds per run (default %d, -quick %d)", defaultSeconds, quickSeconds))
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the probes")
	flag.BoolVar(&o.quick, "quick", false, "seconds-long smoke run over the same code paths; not for claims")
	flag.IntVar(&o.repeat, "repeat", 1, "untraced runs per workload (seeds seed, seed+1, …) when running every workload")
	flag.StringVar(&o.out, "out", "", "directory for results.json (and, with -workload -trace 1, the span dump)")
	flag.StringVar(&o.compare, "compare", "", "compare this result file with the one named by the next argument")
	flag.Parse()
	if o.seconds <= 0 {
		o.seconds = defaultSeconds
		if o.quick {
			o.seconds = quickSeconds
		}
	}

	var err error
	switch {
	case o.compare != "":
		if flag.NArg() != 1 {
			err = fmt.Errorf("usage: -compare a.json b.json")
			break
		}
		err = compareFiles(os.Stdout, o.compare, flag.Arg(0))
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect makes the process exit non-zero after its result has
// been printed: an op failed or the read-back did not match the model.
var errIncorrect = errors.New("outputs incorrect: failed ops or verification mismatches (see above)")

// runOne is one run of one workload: the unit the driver (and runAll)
// invokes. Everything for people goes to stderr; stdout carries the
// result line only.
func runOne(o options) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(scratchBase, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(scratchBase, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	newDir := func() (string, error) { return os.MkdirTemp(scratch, "sys-") }

	d := time.Duration(o.seconds) * time.Second
	listOps := o.seconds * w.opsPerSec
	if w.renew {
		listOps = w.chunkOps // every chunk replays the same list
	}
	l := generate(o.seed, w.mix, listOps)
	mach, _ := json.Marshal(describeMachine(scratch))
	fmt.Fprintf(os.Stderr, "workload %s seed %d seconds %d trace %d\nmachine %s\n", w.name, o.seed, o.seconds, o.trace, mach)

	var res result
	if o.trace == 0 {
		out, err := measure(w, newDir, l, d, nil, o.quick)
		if err != nil {
			return err
		}
		out.sys.close()
		out.report(w.name + " (untraced)")
		fmt.Fprintf(os.Stderr, "  set-up %.4fs (median of %d)\n", out.setupS, out.setups)
		res = result{Attempted: out.attempted, Failed: out.failed, Metrics: pack(endToEnd, endToEndValues(out))}
	} else {
		if res, err = runTraced(w, newDir, l, d, scratch, o.out); err != nil {
			return err
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runTraced produces the per-layer metrics: an untraced stretch for the
// baseline, a traced stretch on a fresh system for the spans (half the
// time each), then the isolated probes of the layers this workload
// reaches.
func runTraced(w workload, newDir scratchDirs, l opList, d time.Duration, scratch, outDir string) (result, error) {
	half := d / 2
	base, err := measure(w, newDir, l, half, nil, true)
	if err != nil {
		return result{}, err
	}
	baseBusy := base.sys.busyRejected()
	base.sys.close()
	base.report(w.name + " (untraced baseline)")

	tr := newTracer(spanBudget)
	traced, err := measure(w, newDir, l, half, tr, true)
	if err != nil {
		return result{}, err
	}
	busy := baseBusy + traced.sys.busyRejected()
	replicas := 0
	if len(traced.sys.nodes) > 0 {
		replicas = traced.sys.nodes[0].Config().K
	}
	traced.sys.close()
	traced.report(w.name + " (traced)")
	if n := tr.dropped.Load(); n > 0 {
		return result{}, fmt.Errorf("span buffer overflowed: %d spans dropped", n)
	}
	spans := tr.spans[:tr.used()]
	rep := analyse(spans)
	rep.budget.print(os.Stderr, w.name)

	v := rep.values
	v["rpcs_per_op"] = float64(traced.rpcs) / float64(traced.ops)
	v["hot_node_share"] = traced.hotShare
	v["navigate_p50_us"] = base.p50(opNavigate)
	v["search_p50_us"] = base.p50(opSearch)
	v["tag_p99_us"] = base.p99(opTag)
	v["navigate_p99_us"] = base.p99(opNavigate)
	v["admission.busy_rejected"] = float64(busy)
	v["persist.wal_bytes_per_op"] = float64(traced.walBytes) / float64(traced.ops)
	v["proc.gc_pause_ms"] = base.perOp(func(c *chunk) float64 { return float64(c.gcPause) / float64(time.Millisecond) }) * base.opsPerSec()
	v["trace.overhead_ratio"] = base.opsPerSec() / traced.opsPerSec()

	// Probes of layers this workload bypasses are not run: they read 0.
	for _, d := range perLayer {
		if _, ok := v[d.name]; !ok {
			v[d.name] = 0
		}
	}
	if err := probeStore(v); err != nil {
		return result{}, err
	}
	if w.overlay {
		probeTable(v, replicas)
		if err := probeCodec(v, tr.captured); err != nil {
			return result{}, err
		}
		if err := probeAdmission(v); err != nil {
			return result{}, err
		}
	}
	if w.secured {
		if err := probeSecurity(v); err != nil {
			return result{}, err
		}
		if err := probePersist(v, scratch, filepath.Join(traced.sys.dataDir, "peer-0")); err != nil {
			return result{}, err
		}
	}
	v["proc.peak_rss_mb"] = peakRSSMB()

	if outDir != "" {
		if err := dumpSpans(filepath.Join(outDir, "spans-"+w.name+".bin"), spans); err != nil {
			return result{}, err
		}
	}
	return result{
		Attempted: base.attempted + traced.attempted,
		Failed:    base.failed + traced.failed,
		Metrics:   pack(perLayer, v),
	}, nil
}

// dumpSpans writes the span buffer as fixed-size little-endian records
// in the field order of the span struct (40 bytes each).
func dumpSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := binary.Write(f, binary.LittleEndian, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
