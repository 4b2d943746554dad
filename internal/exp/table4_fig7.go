package exp

import (
	"fmt"
	"io"
	"strings"

	"dharma/internal/metrics"
	"dharma/internal/plot"
	"dharma/internal/search"
	"dharma/internal/sim"
)

// paperTable4 holds the paper's Table IV (µ, σ, median) per graph and
// strategy.
var paperTable4 = map[string]map[search.Strategy][3]float64{
	"original": {
		search.Last:   {3.47, 1.4175, 3},
		search.Random: {6.412, 4.4587, 5},
		search.First:  {33.94, 15.9942, 33},
	},
	"simulated": {
		search.Last:   {3.38, 1.2373, 3},
		search.Random: {5.2140, 2.6994, 5},
		search.First:  {19.17, 10.3065, 16},
	},
}

// Table4Result reproduces Table IV and carries the raw path-length
// samples Figure 7 plots.
type Table4Result struct {
	K          int // connection parameter of the simulated graph
	Seeds      int // number of starting tags
	RandomRuns int
	// Original and Simulated map each strategy to its path-length
	// summary; Raw* keep the samples for Figure 7.
	Original, Simulated       map[search.Strategy]metrics.Summary
	RawOriginal, RawSimulated map[search.Strategy][]float64
}

// RunTable4 executes the §V-C convergence experiment: from each of the
// topSeeds most popular tags, one "first", one "last" and randomRuns
// random walks on both the original graph and the k=1 approximated one.
func RunTable4(w *Workbench, k, topSeeds, randomRuns int) *Table4Result {
	g := w.Graph()
	seeds := w.PopularTags(topSeeds)
	cfg := sim.SearchConfig{Seeds: seeds, RandomRuns: randomRuns, Seed: w.Seed}

	origOut := sim.RunSearches(search.NewFolkView(g), cfg)
	simOut := sim.RunSearches(search.NewCompositeView(w.Evolution(k), g), cfg)

	res := &Table4Result{
		K: k, Seeds: len(seeds), RandomRuns: randomRuns,
		Original:     map[search.Strategy]metrics.Summary{},
		Simulated:    map[search.Strategy]metrics.Summary{},
		RawOriginal:  origOut.Steps,
		RawSimulated: simOut.Steps,
	}
	for strat, steps := range origOut.Steps {
		res.Original[strat] = metrics.Summarize(steps)
	}
	for strat, steps := range simOut.Steps {
		res.Simulated[strat] = metrics.Summarize(steps)
	}
	return res
}

var table4Strategies = []search.Strategy{search.Last, search.Random, search.First}

// String renders Table IV with the paper's values alongside.
func (r *Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV — search path length (steps), %d seed tags, %d random runs each, simulated k=%d\n",
		r.Seeds, r.RandomRuns, r.K)
	fmt.Fprintf(&b, "%-18s %8s %8s %8s   %s\n", "graph/stat", "last", "rand", "first", "paper (last/rand/first)")
	dump := func(label string, rows map[search.Strategy]metrics.Summary, paper map[search.Strategy][3]float64, idx int, stat func(metrics.Summary) float64) {
		fmt.Fprintf(&b, "%-18s", label)
		for _, s := range table4Strategies {
			fmt.Fprintf(&b, " %8.2f", stat(rows[s]))
		}
		fmt.Fprintf(&b, "   %8.2f %8.2f %8.2f\n",
			paper[search.Last][idx], paper[search.Random][idx], paper[search.First][idx])
	}
	for _, graph := range []struct {
		label string
		rows  map[search.Strategy]metrics.Summary
		paper map[search.Strategy][3]float64
	}{
		{"original", r.Original, paperTable4["original"]},
		{"simulated(k=1)", r.Simulated, paperTable4["simulated"]},
	} {
		dump(graph.label+" mu", graph.rows, graph.paper, 0, func(s metrics.Summary) float64 { return s.Mean })
		dump(graph.label+" sd", graph.rows, graph.paper, 1, func(s metrics.Summary) float64 { return s.Std })
		dump(graph.label+" med", graph.rows, graph.paper, 2, func(s metrics.Summary) float64 { return s.Median })
	}
	return b.String()
}

// Figure7Result reproduces Figure 7: the CDFs of path length per
// strategy, on both graphs.
type Figure7Result struct {
	// CDFs[graph][strategy] with graph ∈ {"original", "approximated"}.
	CDFs map[string]map[search.Strategy][]metrics.CDFPoint
	// means holds each strategy's mean path length on the original and
	// the approximated graph, in that order.
	means map[search.Strategy][2]float64
}

// RunFigure7 derives the CDFs from a Table IV run (the same samples).
func RunFigure7(t4 *Table4Result) *Figure7Result {
	out := &Figure7Result{CDFs: map[string]map[search.Strategy][]metrics.CDFPoint{
		"original":     {},
		"approximated": {},
	}, means: map[search.Strategy][2]float64{}}
	for strat, orig := range t4.Original {
		out.means[strat] = [2]float64{orig.Mean, t4.Simulated[strat].Mean}
	}
	for strat, steps := range t4.RawOriginal {
		out.CDFs["original"][strat] = metrics.CDF(steps)
	}
	for strat, steps := range t4.RawSimulated {
		out.CDFs["approximated"][strat] = metrics.CDF(steps)
	}
	return out
}

// String prints the CDFs at small step counts (the figure's axes),
// followed by an ASCII rendering per strategy.
func (f *Figure7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7 — CDF of search path length per strategy\n")
	for _, strat := range table4Strategies {
		fmt.Fprintf(&b, "-- %s tag strategy --\n%6s %12s %12s\n", strat, "steps", "original", "approximated")
		for _, x := range []float64{2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 40, 60, 80} {
			fmt.Fprintf(&b, "%6.0f %12.4f %12.4f\n", x,
				metrics.CDFAt(f.CDFs["original"][strat], x),
				metrics.CDFAt(f.CDFs["approximated"][strat], x))
		}
		b.WriteString(plot.Render([]plot.Series{
			{Name: "original", Points: cdfPoints(f.CDFs["original"][strat])},
			{Name: "approximated", Points: cdfPoints(f.CDFs["approximated"][strat])},
		}, plot.Options{Height: 12, XLabel: "search steps", YLabel: "cumulative probability"}))
	}
	// The paper reports every CDF shifting left (shorter navigations);
	// print the direction measured here rather than the claim.
	b.WriteString("mean path, original -> approximated:")
	for i, strat := range table4Strategies {
		m := f.means[strat]
		dir := "left"
		switch {
		case m[1] > m[0]:
			dir = "right"
		case m[1] == m[0]:
			dir = "unchanged"
		}
		if i > 0 {
			b.WriteString(" |")
		}
		fmt.Fprintf(&b, " %s %.2f -> %.2f (%s)", strat, m[0], m[1], dir)
	}
	b.WriteString("\n")
	return b.String()
}

// WriteCSV dumps all six CDF series.
func (f *Figure7Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "graph,strategy,steps,cumulative_probability"); err != nil {
		return err
	}
	for graph, byStrat := range f.CDFs {
		for strat, pts := range byStrat {
			for _, p := range pts {
				if _, err := fmt.Fprintf(w, "%s,%s,%g,%g\n", graph, strat, p.Value, p.Prob); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
