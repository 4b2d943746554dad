// Command dharma-gen generates and inspects the tagging workloads the
// evaluation runs on: it prints the §V-A structural statistics
// (Table II, Figure 5) for a chosen scale, dumps the raw ⟨user, item,
// tag⟩ triples as CSV, and loads such dumps back (so a real crawl can be
// analysed the same way).
package main

import (
	"flag"
	"fmt"
	"os"

	"dharma/internal/dataset"
	"dharma/internal/exp"
)

func main() {
	scale := flag.String("scale", "small", "workload scale: tiny, small or lastfm")
	seed := flag.Int64("seed", 1, "generator seed")
	csvPath := flag.String("csv", "", "write the annotation triples to this file")
	loadPath := flag.String("load", "", "load annotations from a CSV instead of generating")
	flag.Parse()

	var w *exp.Workbench
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fail(err)
		}
		d, err := dataset.ReadCSV(f)
		f.Close() //nolint:errcheck // read-only
		if err != nil {
			fail(err)
		}
		fmt.Printf("loaded %d annotations from %s\n\n", len(d.Annotations), *loadPath)
		w = exp.NewWorkbenchFromDataset(d, *seed)
	} else {
		var cfg dataset.Config
		switch *scale {
		case "tiny":
			cfg = dataset.Tiny(*seed)
		case "small":
			cfg = dataset.Small(*seed)
		case "lastfm":
			cfg = dataset.LastFMScaled(*seed)
		default:
			fmt.Fprintf(os.Stderr, "dharma-gen: unknown scale %q\n", *scale)
			os.Exit(2)
		}
		w = exp.NewWorkbench(cfg)
	}

	fmt.Print(exp.RunTable2(w))
	fmt.Println()
	fmt.Print(exp.RunFigure5(w))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fail(err)
		}
		if err := w.Dataset().WriteCSV(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("\nwrote %d annotations to %s\n", len(w.Dataset().Annotations), *csvPath)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dharma-gen:", err)
	os.Exit(1)
}
