// Command dharma-bench regenerates every table and figure of the
// paper's evaluation section (plus the ablations and extensions listed
// in README "Reproducing the paper") on a synthetic workload, printing
// each artifact with the paper's own numbers alongside and optionally
// writing the figures' series as CSV.
//
//	dharma-bench -scale small            # quick pass (~seconds)
//	dharma-bench -scale lastfm -out csv  # full benchmark preset + CSVs
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"dharma/internal/dataset"
	"dharma/internal/exp"
)

type csvWriter interface{ WriteCSV(w io.Writer) error }

func main() {
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
