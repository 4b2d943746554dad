// Command dharma-bench regenerates every table and figure of the
// paper's evaluation section (plus the ablations and extensions listed
// in README "Reproducing the paper") on a synthetic workload, printing
// each artifact with the paper's own numbers alongside and optionally
// writing the figures' series as CSV.
//
//	dharma-bench -scale small            # quick pass (~seconds)
//	dharma-bench -scale lastfm -out csv  # full benchmark preset + CSVs
//
// The overload subcommand offers load at multiples of the deployment's
// measured capacity and verifies overload protection: goodput must stay
// flat (excess load rejected early with BUSY) and goroutines must
// return to baseline:
//
//	dharma-bench overload -mult 1,2,4                  # in-process simnet overlay
//	dharma-bench overload -bootstrap 127.0.0.1:9000    # against a real UDP fleet
//
// The scale subcommand sweeps overlay size (100, 1k, 10k nodes by
// default) and reports hop-count and latency distributions per lookup,
// optionally writing BENCH_scale.json:
//
//	dharma-bench scale -out .
//
// The antientropy subcommand measures maintenance bytes per round on
// the hot-tag regime — legacy full-block pushes vs the digest-first
// summary sweep vs steady-state timer-driven rounds — and doubles as a
// regression gate plus a crash-wave durability check:
//
//	dharma-bench antientropy -assert-ratio 10
//
// The scrape subcommand reads a serving node's live ops endpoint
// (dharma-node serve -debug-addr) and reports RPC latency percentiles,
// admission accounting, and the hop-by-hop timeline of a recent lookup
// trace; -assert-rpc/-assert-trace make it a fleet health check:
//
//	dharma-bench scrape -addr 127.0.0.1:9600 -assert-rpc -assert-trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dharma/internal/dataset"
	"dharma/internal/exp"
)

type csvWriter interface{ WriteCSV(w io.Writer) error }

func main() {
	// Ctrl-C cancels the run: the overload, scale and antientropy
	// subcommands abort their in-flight operations and exit promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(os.Args) > 1 && os.Args[1] == "overload" {
		runOverload(ctx, os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scale" {
		runScale(ctx, os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "antientropy" {
		runAntiEntropy(ctx, os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scrape" {
		runScrape(ctx, os.Args[2:])
		return
	}
	// The experiment path below is batch work that does not poll ctx;
	// NotifyContext swallowed the signal's default-kill behavior, so
	// restore it: first Ctrl-C exits promptly. A goroutine waiting on
	// ctx.Done cannot do this: the deferred stop of a clean return wakes
	// it too.
	stop()
	scale := flag.String("scale", "small", "workload scale: tiny, small or lastfm")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "directory for figure CSVs (omit to skip)")
	flag.Parse()

	var cfg dataset.Config
	seeds, randomRuns := 0, 0
	switch *scale {
	case "tiny":
		cfg, seeds, randomRuns = dataset.Tiny(*seed), 10, 20
	case "small":
		cfg, seeds, randomRuns = dataset.Small(*seed), 50, 50
	case "lastfm":
		cfg, seeds, randomRuns = dataset.LastFMScaled(*seed), 100, 100
	default:
		fmt.Fprintf(os.Stderr, "dharma-bench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
	}

	w := exp.NewWorkbench(cfg)
	start := time.Now()
	section := func(name string) {
		fmt.Printf("\n===== %s (elapsed %.1fs) =====\n", name, time.Since(start).Seconds())
	}

	section("Table I")
	t1, err := exp.RunTable1(5)
	if err != nil {
		fail(err)
	}
	fmt.Print(t1)
	if !t1.Verified() {
		fail(fmt.Errorf("Table I verification failed"))
	}

	section("Table II")
	fmt.Print(exp.RunTable2(w))

	section("Figure 5")
	f5 := exp.RunFigure5(w)
	fmt.Print(f5)
	writeCSV(*out, "figure5.csv", f5)

	section("Table III")
	fmt.Print(exp.RunTable3(w, []int{1, 5, 10}))

	section("Figure 6")
	f6 := exp.RunFigure6(w, []int{1, 100})
	fmt.Print(f6)
	writeCSV(*out, "figure6.csv", f6)

	section("Figure 8")
	f8 := exp.RunFigure8(w, []int{1, 25, 500})
	fmt.Print(f8)
	writeCSV(*out, "figure8.csv", f8)

	section("Table IV")
	t4 := exp.RunTable4(w, 1, seeds, randomRuns)
	fmt.Print(t4)

	section("Figure 7")
	f7 := exp.RunFigure7(t4)
	fmt.Print(f7)
	writeCSV(*out, "figure7.csv", f7)

	section("Ablation A1 (approximations in isolation)")
	fmt.Print(exp.RunAblationB(w, 1))

	section("Ablation A2 (k sweep)")
	fmt.Print(exp.RunAblationK(w, []int{1, 2, 5, 10, 25, 100}))

	section("Ablation A3 (hotspots)")
	hot, err := exp.RunHotspots(w, 32, 2000, 5)
	if err != nil {
		fail(err)
	}
	fmt.Print(hot)

	section("Ablation A4 (filter cap)")
	fmt.Print(exp.RunFilterCap(w, []int{10, 50, 100, 500}, min(seeds, 20), min(randomRuns, 20)))

	section("Extension A5 (trend emergence — §VI future work)")
	trend := exp.RunTrendEmergence(w, 1, cfg.Annotations/100, 12, 100)
	fmt.Print(trend)
	writeCSV(*out, "trend.csv", trend)

	section("Extension A6 (availability under churn)")
	churn, err := exp.RunChurn(w, 20, 1200, 6, 3, 2, 4)
	if err != nil {
		fail(err)
	}
	fmt.Print(churn)

	fmt.Printf("\nall artifacts regenerated in %.1fs\n", time.Since(start).Seconds())
}

func writeCSV(dir, name string, r csvWriter) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := r.WriteCSV(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("(wrote %s)\n", path)
}

// diag is the bench's diagnostic logger. Reports and tables stay on
// stdout (they are the product); diagnostics are structured on stderr.
var diag = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))

func fail(err error) {
	diag.Error("fatal", "err", err)
	os.Exit(1)
}
