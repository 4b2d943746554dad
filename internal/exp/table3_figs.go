package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dharma/internal/metrics"
	"dharma/internal/plot"
	"dharma/internal/sim"
)

// paperTable3 holds the paper's Table III values (µ, σ) for each k.
var paperTable3 = map[int]map[string][2]float64{
	1:  {"recall": {0.6103, 0.2798}, "tau": {0.7636, 0.2728}, "theta": {0.8152, 0.1978}, "sim1": {0.9214, 0.1044}},
	5:  {"recall": {0.7268, 0.2730}, "tau": {0.7638, 0.2380}, "theta": {0.8664, 0.1636}, "sim1": {0.9346, 0.0914}},
	10: {"recall": {0.7841, 0.2686}, "tau": {0.7985, 0.2138}, "theta": {0.8971, 0.1424}, "sim1": {0.9432, 0.0850}},
}

// Table3Row is the comparison between approximated and theoretic FG for
// one connection parameter.
type Table3Row struct {
	K                                int
	Recall, Tau, Theta, Sim1         metrics.Summary
	MissingWeightLE3                 float64
	OrigArcs, MissingArcs, ApproxOps int
}

// Table3Result reproduces Table III for a set of k values.
type Table3Result struct {
	Rows []Table3Row
}

// RunTable3 evolves the approximated graph for each k and compares it
// to the theoretic graph.
func RunTable3(w *Workbench, ks []int) *Table3Result {
	orig := w.Graph()
	res := &Table3Result{}
	for _, k := range ks {
		evo := w.Evolution(k)
		cmp := sim.Compare(orig, evo, sim.CompareOptions{Seed: w.Seed})
		res.Rows = append(res.Rows, Table3Row{
			K:                k,
			Recall:           metrics.Summarize(cmp.Recall),
			Tau:              metrics.Summarize(cmp.Tau),
			Theta:            metrics.Summarize(cmp.Theta),
			Sim1:             metrics.Summarize(cmp.Sim1),
			MissingWeightLE3: cmp.MissingWeightLE3,
			OrigArcs:         cmp.OrigArcs,
			MissingArcs:      cmp.MissingArcs,
			ApproxOps:        evo.Ops,
		})
	}
	return res
}

// String renders the table with the paper's values alongside.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table III — approximated vs theoretic folksonomy graph\n")
	fmt.Fprintf(&b, "%3s %4s %10s %10s %10s %10s   %s\n",
		"k", "", "Recall", "Ktau", "theta", "sim1%", "paper (same order)")
	for _, row := range r.Rows {
		p := paperTable3[row.K]
		paperMu, paperSd := "", ""
		if p != nil {
			paperMu = fmt.Sprintf("%.4f %.4f %.4f %.4f", p["recall"][0], p["tau"][0], p["theta"][0], p["sim1"][0])
			paperSd = fmt.Sprintf("%.4f %.4f %.4f %.4f", p["recall"][1], p["tau"][1], p["theta"][1], p["sim1"][1])
		}
		fmt.Fprintf(&b, "%3d %4s %10.4f %10.4f %10.4f %10s   %s\n",
			row.K, "mu", row.Recall.Mean, row.Tau.Mean, row.Theta.Mean, stat(row.Sim1, row.Sim1.Mean), paperMu)
		fmt.Fprintf(&b, "%3s %4s %10.4f %10.4f %10.4f %10s   %s\n",
			"", "sd", row.Recall.Std, row.Tau.Std, row.Theta.Std, stat(row.Sim1, row.Sim1.Std), paperSd)
	}
	if len(r.Rows) > 0 {
		last := r.Rows[len(r.Rows)-1]
		fmt.Fprintf(&b, "missing arcs with theoretic weight<=3 at k=%d: %.4f (paper: 0.99 for every k)\n",
			last.K, last.MissingWeightLE3)
	}
	return b.String()
}

// stat renders one statistic v of summary s to four places, or "-"
// when s has no samples: sim1% is taken over missing arcs only, so it
// is undefined at a k where none is missing.
func stat(s metrics.Summary, v float64) string {
	if s.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4f", v)
}

// FigureScatter is the generic scatter-series result behind Figures 6
// and 8: per-k point clouds of original-vs-simulated values plus the
// fitted slope through the origin.
type FigureScatter struct {
	Figure string // "6" or "8"
	XLabel string
	Series map[int][][2]float64 // k -> (original, simulated) pairs
	Slopes map[int]float64
}

// RunFigure6 compares nodal out-degrees between the original and the
// simulated graphs for the paper's k values (1 and 100).
func RunFigure6(w *Workbench, ks []int) *FigureScatter {
	orig := w.Graph()
	out := &FigureScatter{Figure: "6", XLabel: "node out degree",
		Series: map[int][][2]float64{}, Slopes: map[int]float64{}}
	for _, k := range ks {
		cmp := sim.Compare(orig, w.Evolution(k), sim.CompareOptions{Seed: w.Seed})
		out.Series[k] = cmp.DegreePairs
		xs := make([]float64, len(cmp.DegreePairs))
		ys := make([]float64, len(cmp.DegreePairs))
		for i, p := range cmp.DegreePairs {
			xs[i], ys[i] = p[0], p[1]
		}
		out.Slopes[k] = metrics.SlopeThroughOrigin(xs, ys)
	}
	return out
}

// RunFigure8 compares arc weights between the original and the
// simulated graphs for the paper's k values (1, 25, 500).
func RunFigure8(w *Workbench, ks []int) *FigureScatter {
	orig := w.Graph()
	out := &FigureScatter{Figure: "8", XLabel: "arc weight",
		Series: map[int][][2]float64{}, Slopes: map[int]float64{}}
	for _, k := range ks {
		cmp := sim.Compare(orig, w.Evolution(k), sim.CompareOptions{Seed: w.Seed})
		out.Series[k] = cmp.WeightPairs
		xs := make([]float64, len(cmp.WeightPairs))
		ys := make([]float64, len(cmp.WeightPairs))
		for i, p := range cmp.WeightPairs {
			xs[i], ys[i] = p[0], p[1]
		}
		out.Slopes[k] = metrics.SlopeThroughOrigin(xs, ys)
	}
	return out
}

// String summarises the scatter by its fitted slopes (the paper's
// qualitative claims: Figure 6 slopes stay near the diagonal for every
// k; Figure 8 slopes fall well below 1 for small k) and draws the point
// cloud against the y=x reference.
func (f *FigureScatter) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s — original vs simulated %s\n", f.Figure, f.XLabel)
	ks := f.ks()
	series := make([]plot.Series, 0, len(ks))
	for _, k := range ks {
		fmt.Fprintf(&b, "  k=%-4d points=%-7d slope(sim~orig)=%.4f\n", k, len(f.Series[k]), f.Slopes[k])
		pts := f.Series[k]
		if len(pts) > 2000 { // keep the canvas drawing cheap
			pts = pts[:2000]
		}
		series = append(series, plot.Series{Name: fmt.Sprintf("k=%d", k), Points: pts})
	}
	b.WriteString(plot.Render(series, plot.Options{
		LogX: true, LogY: true, Diagonal: true,
		XLabel: "original " + f.XLabel, YLabel: "simulated " + f.XLabel,
	}))
	if f.Figure == "6" {
		b.WriteString("(paper: degree points align close to the diagonal even for k=1)\n")
	} else {
		b.WriteString("(paper: weights are significantly reduced for low k)\n")
	}
	return b.String()
}

// WriteCSV dumps every series for plotting.
func (f *FigureScatter) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "k,original_%s,simulated_%s\n",
		csvLabel(f.XLabel), csvLabel(f.XLabel)); err != nil {
		return err
	}
	for _, k := range f.ks() {
		for _, p := range f.Series[k] {
			if _, err := fmt.Fprintf(w, "%d,%g,%g\n", k, p[0], p[1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ks returns the scatter's k values in ascending order.
func (f *FigureScatter) ks() []int {
	ks := make([]int, 0, len(f.Series))
	for k := range f.Series {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func csvLabel(s string) string { return strings.ReplaceAll(s, " ", "_") }
