package exp

import (
	"context"

	"fmt"
	"sort"
	"strings"

	"dharma"
	"dharma/internal/metrics"
	"dharma/internal/search"
	"dharma/internal/sim"
)

// AblationBResult isolates the two approximations (A1 in README
// "Reproducing the paper"):
// Approximation B alone never drops arcs (recall 1) but flattens
// weights; Approximation A alone drops arcs but keeps theoretic forward
// weights.
type AblationBResult struct {
	K int // the connection parameter used for the A-only row
	// BOnly compares {A off, B on} against the theoretic graph.
	BOnlyRecall, BOnlyTau, BOnlyTheta metrics.Summary
	// AOnly compares {A on with K, B off} against the theoretic graph.
	AOnlyRecall, AOnlyTau, AOnlyTheta metrics.Summary
}

// RunAblationB evolves the graph with each approximation disabled in
// turn.
func RunAblationB(w *Workbench, k int) *AblationBResult {
	orig := w.Graph()
	schedule := w.Schedule()

	bOnly := sim.Evolve(schedule, sim.EvolutionConfig{K: 0, ApproxB: true, Seed: w.Seed})
	bCmp := sim.Compare(orig, bOnly, sim.CompareOptions{Seed: w.Seed})

	aOnly := sim.Evolve(schedule, sim.EvolutionConfig{K: k, ApproxB: false, Seed: w.Seed})
	aCmp := sim.Compare(orig, aOnly, sim.CompareOptions{Seed: w.Seed})

	return &AblationBResult{
		K:           k,
		BOnlyRecall: metrics.Summarize(bCmp.Recall),
		BOnlyTau:    metrics.Summarize(bCmp.Tau),
		BOnlyTheta:  metrics.Summarize(bCmp.Theta),
		AOnlyRecall: metrics.Summarize(aCmp.Recall),
		AOnlyTau:    metrics.Summarize(aCmp.Tau),
		AOnlyTheta:  metrics.Summarize(aCmp.Theta),
	}
}

// String renders the ablation.
func (r *AblationBResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation A1 — approximations in isolation\n")
	fmt.Fprintf(&b, "%-24s %10s %10s %10s\n", "variant", "recall", "Ktau", "theta")
	fmt.Fprintf(&b, "%-24s %10.4f %10.4f %10.4f\n", "B only (A disabled)",
		r.BOnlyRecall.Mean, r.BOnlyTau.Mean, r.BOnlyTheta.Mean)
	fmt.Fprintf(&b, "%-24s %10.4f %10.4f %10.4f\n", fmt.Sprintf("A only (k=%d, B off)", r.K),
		r.AOnlyRecall.Mean, r.AOnlyTau.Mean, r.AOnlyTheta.Mean)
	b.WriteString("(B alone keeps recall = 1: it flattens weights but never drops arcs)\n")
	return b.String()
}

// AblationKResult sweeps the connection parameter (A2): the paper's
// claim that recall grows sub-linearly with k, quantified.
type AblationKResult struct {
	Ks     []int
	Recall []float64 // mean per k
	Tau    []float64
	Theta  []float64
	Sim1   []metrics.Summary // empty at a k where no arc is missing
}

// RunAblationK measures the comparison metrics across a k sweep.
func RunAblationK(w *Workbench, ks []int) *AblationKResult {
	orig := w.Graph()
	out := &AblationKResult{Ks: ks}
	for _, k := range ks {
		cmp := sim.Compare(orig, w.Evolution(k), sim.CompareOptions{Seed: w.Seed})
		out.Recall = append(out.Recall, metrics.Summarize(cmp.Recall).Mean)
		out.Tau = append(out.Tau, metrics.Summarize(cmp.Tau).Mean)
		out.Theta = append(out.Theta, metrics.Summarize(cmp.Theta).Mean)
		out.Sim1 = append(out.Sim1, metrics.Summarize(cmp.Sim1))
	}
	return out
}

// String renders the sweep.
func (r *AblationKResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation A2 — connection parameter sweep (means per tag)\n")
	fmt.Fprintf(&b, "%4s %10s %10s %10s %10s\n", "k", "recall", "Ktau", "theta", "sim1%")
	for i, k := range r.Ks {
		fmt.Fprintf(&b, "%4d %10.4f %10.4f %10.4f %10s\n",
			k, r.Recall[i], r.Tau[i], r.Theta[i], stat(r.Sim1[i], r.Sim1[i].Mean))
	}
	b.WriteString("(paper: recall grows sub-linearly with k)\n")
	return b.String()
}

// HotspotResult measures how block placement and request load spread
// over overlay nodes when a workload is published through DHARMA (A3) —
// the hotspot concern §V raises for popular tags.
type HotspotResult struct {
	Nodes           int
	TotalBlocks     int
	TotalRequests   int64
	BlockGini       float64 // inequality of stored entries per node
	RequestGini     float64 // inequality of requests served per node
	Top5RequestFrac float64 // share of requests served by the 5 busiest nodes
}

// RunHotspots publishes a workload slice through a live cluster (with
// the approximated engine) and then replays one search step per popular
// tag, measuring the per-node distribution of storage and traffic.
func RunHotspots(w *Workbench, nodes, annotations, k int) (*HotspotResult, error) {
	sys, err := dharma.NewSystem(dharma.Config{Nodes: nodes, Mode: dharma.Approximated, K: k, Seed: w.Seed})
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()
	client := sys.Peer(1)

	tagPop, err := w.publish(client, annotations)
	if err != nil {
		return nil, err
	}

	// One search step per tag, most popular first (popularity within the
	// replayed slice).
	for _, tag := range topTags(tagPop, 100) {
		if _, _, err := client.SearchStep(context.Background(), tag); err != nil {
			return nil, err
		}
	}

	res := &HotspotResult{Nodes: nodes}
	var blockLoad, reqLoad []float64
	for _, p := range sys.Peers() {
		blocks := p.Node.LocalStore().EntryCount()
		res.TotalBlocks += blocks
		blockLoad = append(blockLoad, float64(blocks))
		served := p.Stats().RPCServed
		res.TotalRequests += served
		reqLoad = append(reqLoad, float64(served))
	}
	res.BlockGini = metrics.Gini(blockLoad)
	res.RequestGini = metrics.Gini(reqLoad)

	sort.Sort(sort.Reverse(sort.Float64Slice(reqLoad)))
	var top5 float64
	for i := 0; i < 5 && i < len(reqLoad); i++ {
		top5 += reqLoad[i]
	}
	if res.TotalRequests > 0 {
		res.Top5RequestFrac = top5 / float64(res.TotalRequests)
	}
	return res, nil
}

// String renders the hotspot measurements.
func (r *HotspotResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation A3 — hotspot load distribution on the overlay\n")
	fmt.Fprintf(&b, "nodes=%d stored-entries=%d requests=%d\n", r.Nodes, r.TotalBlocks, r.TotalRequests)
	fmt.Fprintf(&b, "storage Gini=%.3f request Gini=%.3f top-5-node request share=%.3f\n",
		r.BlockGini, r.RequestGini, r.Top5RequestFrac)
	b.WriteString("(hashing spreads blocks; skew that remains tracks tag popularity, the paper's hotspot concern)\n")
	return b.String()
}

// FilterCapResult sweeps the index-side filter / display cap (A4): how
// the per-step tag budget changes convergence speed.
type FilterCapResult struct {
	Caps  []int
	Stats map[int]map[search.Strategy]metrics.Summary
}

// RunFilterCap runs the convergence experiment at several display caps
// on the original graph.
func RunFilterCap(w *Workbench, caps []int, topSeeds, randomRuns int) *FilterCapResult {
	g := w.Graph()
	seeds := w.PopularTags(topSeeds)
	out := &FilterCapResult{Caps: caps, Stats: map[int]map[search.Strategy]metrics.Summary{}}
	for _, c := range caps {
		res := sim.RunSearches(search.NewFolkView(g), sim.SearchConfig{
			Seeds:      seeds,
			RandomRuns: randomRuns,
			Options:    search.Options{DisplayCap: c},
			Seed:       w.Seed,
		})
		out.Stats[c] = map[search.Strategy]metrics.Summary{}
		for strat, steps := range res.Steps {
			out.Stats[c][strat] = metrics.Summarize(steps)
		}
	}
	return out
}

// String renders the sweep.
func (r *FilterCapResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation A4 — index-side filter cap vs mean path length\n")
	fmt.Fprintf(&b, "%6s %8s %8s %8s\n", "cap", "last", "rand", "first")
	for _, c := range r.Caps {
		fmt.Fprintf(&b, "%6d", c)
		for _, s := range table4Strategies {
			fmt.Fprintf(&b, " %8.2f", r.Stats[c][s].Mean)
		}
		b.WriteString("\n")
	}
	return b.String()
}
