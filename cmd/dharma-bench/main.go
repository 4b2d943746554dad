// Command dharma-bench regenerates every table and figure of the
// paper's evaluation section (plus the ablations and extensions listed
// in README "Reproducing the paper") on a synthetic workload, printing
// each artifact with the paper's own numbers alongside and optionally
// writing the figures' series as CSV. It is a flag shim over
// exp.Reproduce.
//
//	dharma-bench -scale small            # quick pass (~seconds)
//	dharma-bench -scale lastfm -out csv  # full benchmark preset + CSVs
package main

import (
	"flag"
	"log/slog"
	"os"

	"dharma/internal/exp"
)

func main() {
	scale := flag.String("scale", "small", "workload scale: tiny, small or lastfm")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "directory for figure CSVs (omit to skip)")
	flag.Parse()

	// Reports and tables go to stdout (they are the product);
	// diagnostics are structured on stderr.
	diag := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := exp.Reproduce(os.Stdout, *scale, *seed, *out); err != nil {
		diag.Error("fatal", "err", err)
		os.Exit(1)
	}
	if *out != "" {
		diag.Info("wrote figure CSVs", "dir", *out)
	}
}
