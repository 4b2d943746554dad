package exp

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"dharma/internal/dataset"
	"dharma/internal/sim"
)

// TrendResult is the A5 extension experiment — the paper's stated
// future work: "we are planning to study if our approximated model
// hampers the emergence of new tagging trends". A brand-new tag bursts
// onto the resources of a popular host tag late in the schedule; we
// track the rank it reaches in the host's displayed neighbour list on
// the exact graph and on the approximated one.
type TrendResult struct {
	HostTag  string
	TrendTag string
	K        int
	Burst    int // trend annotations injected

	// One sample per checkpoint.
	OpsDone    []int // operations applied when sampled
	ExactRank  []int // 1-based rank in the host's display; -1 = absent
	ApproxRank []int
	ExactSim   []int // sim(host, trend) at the checkpoint
	ApproxSim  []int

	// EmergenceOps is the number of operations after the burst began
	// until the trend first entered the host's top-N display (-1 =
	// never), per graph.
	ExactEmergence, ApproxEmergence int
}

// RunTrendEmergence injects a `burst` of trend annotations, uniformly
// interleaved into the last fifth of the schedule, and replays the
// whole schedule on an exact evolver and an approximated (k, B) one,
// sampling the trend tag's display rank at `checkpoints` points. topN
// is the display cut-off (the paper's 100).
func RunTrendEmergence(w *Workbench, k, burst, checkpoints, topN int) *TrendResult {
	base := w.Schedule()
	g := w.Graph()
	host := w.PopularTags(1)[0]
	const trend = "zz-new-trend"

	// The burst tags resources already carrying the host tag, sampled
	// by their popularity — a genuine trend rides popular content.
	hostRes := g.Res(host)
	sort.Slice(hostRes, func(i, j int) bool {
		if hostRes[i].Weight != hostRes[j].Weight {
			return hostRes[i].Weight > hostRes[j].Weight
		}
		return hostRes[i].Name < hostRes[j].Name
	})
	rng := rand.New(rand.NewSource(w.Seed + 77))
	burstAnn := make([]dataset.Annotation, burst)
	for i := range burstAnn {
		r := hostRes[rng.Intn(min(len(hostRes), 50))]
		burstAnn[i] = dataset.Annotation{
			User:     fmt.Sprintf("trendsetter%d", i),
			Resource: r.Name,
			Tag:      trend,
		}
	}

	// Interleave the burst uniformly into the last 20% of the schedule.
	cut := len(base) * 4 / 5
	tail := append([]dataset.Annotation(nil), base[cut:]...)
	for _, a := range burstAnn {
		pos := rng.Intn(len(tail) + 1)
		tail = append(tail, dataset.Annotation{})
		copy(tail[pos+1:], tail[pos:])
		tail[pos] = a
	}
	schedule := append(append([]dataset.Annotation(nil), base[:cut]...), tail...)

	exact := sim.NewEvolver(sim.EvolutionConfig{})
	approx := sim.NewEvolver(sim.EvolutionConfig{K: k, ApproxB: true, Seed: w.Seed})

	res := &TrendResult{
		HostTag: host, TrendTag: trend, K: k, Burst: burst,
		ExactEmergence: -1, ApproxEmergence: -1,
	}
	every := max(len(schedule[cut:])/checkpoints, 1)
	for i, a := range schedule {
		exact.Apply(a)
		approx.Apply(a)
		if i < cut || (i-cut)%every != 0 && i != len(schedule)-1 {
			continue
		}
		er, es := displayRank(exact.Result(), host, trend, topN)
		ar, as := displayRank(approx.Result(), host, trend, topN)
		res.OpsDone = append(res.OpsDone, i+1)
		res.ExactRank = append(res.ExactRank, er)
		res.ApproxRank = append(res.ApproxRank, ar)
		res.ExactSim = append(res.ExactSim, es)
		res.ApproxSim = append(res.ApproxSim, as)
		if er > 0 && res.ExactEmergence < 0 {
			res.ExactEmergence = i + 1 - cut
		}
		if ar > 0 && res.ApproxEmergence < 0 {
			res.ApproxEmergence = i + 1 - cut
		}
	}
	return res
}

// displayRank computes the 1-based position of `tag` in host's top-N
// display (sorted by descending sim, name tie-break), or -1 if absent.
func displayRank(r *sim.Result, host, tag string, topN int) (rank, simValue int) {
	ws := r.Neighbors(host)
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Weight != ws[j].Weight {
			return ws[i].Weight > ws[j].Weight
		}
		return ws[i].Name < ws[j].Name
	})
	if len(ws) > topN {
		ws = ws[:topN]
	}
	for i, w := range ws {
		if w.Name == tag {
			return i + 1, w.Weight
		}
	}
	return -1, r.Sim(host, tag)
}

// String renders the emergence curves.
func (r *TrendResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension A5 — trend emergence (future work of §VI): %d-annotation burst of %q on host %q, k=%d\n",
		r.Burst, r.TrendTag, r.HostTag, r.K)
	fmt.Fprintf(&b, "%10s %12s %12s %12s %12s\n", "ops", "exact rank", "approx rank", "exact sim", "approx sim")
	for i := range r.OpsDone {
		fmt.Fprintf(&b, "%10d %12s %12s %12d %12d\n",
			r.OpsDone[i], rankStr(r.ExactRank[i]), rankStr(r.ApproxRank[i]),
			r.ExactSim[i], r.ApproxSim[i])
	}
	fmt.Fprintf(&b, "ops-to-display after burst start: exact=%s approx=%s\n",
		emergeStr(r.ExactEmergence), emergeStr(r.ApproxEmergence))
	return b.String()
}

// WriteCSV dumps the curves.
func (r *TrendResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "ops,exact_rank,approx_rank,exact_sim,approx_sim"); err != nil {
		return err
	}
	for i := range r.OpsDone {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d\n",
			r.OpsDone[i], r.ExactRank[i], r.ApproxRank[i], r.ExactSim[i], r.ApproxSim[i]); err != nil {
			return err
		}
	}
	return nil
}

func rankStr(r int) string {
	if r < 0 {
		return "-"
	}
	return fmt.Sprintf("#%d", r)
}

func emergeStr(e int) string {
	if e < 0 {
		return "never"
	}
	return fmt.Sprintf("%d", e)
}
