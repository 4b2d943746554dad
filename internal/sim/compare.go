package sim

import (
	"math/rand"
	"sort"

	"dharma/internal/folksonomy"
	"dharma/internal/metrics"
)

// Comparison holds the per-tag measures of §V-B comparing the
// approximated FG against the theoretic one, plus the scatter series
// behind Figures 6 and 8.
type Comparison struct {
	// Per-tag samples over tags that have at least one outgoing arc in
	// the theoretic graph.
	Recall []float64 // |N_approx(t)| / |N_orig(t)|
	Tau    []float64 // Kendall τ over the arcs common to both graphs
	Theta  []float64 // cosine similarity over common arcs
	Sim1   []float64 // among missing arcs of t: fraction with weight 1

	// MissingWeightLE3 is the global fraction of missing arcs whose
	// theoretic weight is ≤ 3 (the paper reports 99%).
	MissingWeightLE3 float64
	// MissingArcs and OrigArcs count directed arcs globally.
	MissingArcs, OrigArcs int

	// DegreePairs holds (original out-degree, simulated out-degree) per
	// tag — the Figure 6 scatter.
	DegreePairs [][2]float64
	// WeightPairs holds (original weight, simulated weight) for a
	// seeded sample of arcs — the Figure 8 scatter (0 simulated weight
	// marks a missing arc).
	WeightPairs [][2]float64
}

// CompareOptions tunes a comparison run.
type CompareOptions struct {
	// WeightSample caps the number of arc-weight pairs collected for
	// Figure 8 (0 selects 20000).
	WeightSample int
	// Seed drives the arc sampling.
	Seed int64
}

// Compare measures how the approximated graph diverges from the
// theoretic one, tag by tag, exactly as §V-B prescribes: Kτ and θ are
// computed "on the set of tags which are common to the two models",
// recall is the arc-count ratio, and sim1% is the share of weight-1
// arcs among those the approximation dropped.
func Compare(orig *folksonomy.Graph, approx *Result, opt CompareOptions) *Comparison {
	if opt.WeightSample == 0 {
		opt.WeightSample = 20000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	cmp := &Comparison{}

	// Reservoir sampling over all arcs for the Figure 8 scatter.
	reservoir := make([][2]float64, 0, opt.WeightSample)
	arcSeen := 0
	addPair := func(ow, aw float64) {
		arcSeen++
		if len(reservoir) < opt.WeightSample {
			reservoir = append(reservoir, [2]float64{ow, aw})
			return
		}
		if j := rng.Intn(arcSeen); j < opt.WeightSample {
			reservoir[j] = [2]float64{ow, aw}
		}
	}

	missingLE3 := 0
	for _, t := range orig.TagNames() {
		origArcs := orig.Neighbors(t)
		if len(origArcs) == 0 {
			continue
		}
		// Neighbors comes back in map order; the weight reservoir below
		// draws from rng per arc, so a fixed arc order is what makes the
		// Figure 8 sample repeat under the seed.
		sort.Slice(origArcs, func(i, j int) bool { return origArcs[i].Name < origArcs[j].Name })
		cmp.OrigArcs += len(origArcs)

		approxW := map[string]int{}
		for _, w := range approx.Neighbors(t) {
			approxW[w.Name] = w.Weight
		}
		cmp.Recall = append(cmp.Recall, metrics.Recall(len(approxW), len(origArcs)))
		cmp.DegreePairs = append(cmp.DegreePairs,
			[2]float64{float64(len(origArcs)), float64(len(approxW))})

		var commonO, commonA []float64
		missing, missingW1 := 0, 0
		for _, arc := range origArcs {
			aw := approxW[arc.Name]
			addPair(float64(arc.Weight), float64(aw))
			if aw > 0 {
				commonO = append(commonO, float64(arc.Weight))
				commonA = append(commonA, float64(aw))
			} else {
				missing++
				if arc.Weight == 1 {
					missingW1++
				}
				if arc.Weight <= 3 {
					missingLE3++
				}
			}
		}
		if len(commonO) >= 2 {
			// τ-b is undefined when either ranking is constant (its tie
			// correction zeroes the denominator); skip those tags, as a
			// 0 would otherwise read as "uncorrelated".
			if !isConstant(commonO) && !isConstant(commonA) {
				cmp.Tau = append(cmp.Tau, metrics.KendallTau(commonO, commonA))
			}
			cmp.Theta = append(cmp.Theta, metrics.Cosine(commonO, commonA))
		}
		if missing > 0 {
			cmp.Sim1 = append(cmp.Sim1, float64(missingW1)/float64(missing))
		}
		cmp.MissingArcs += missing
	}
	if cmp.MissingArcs > 0 {
		cmp.MissingWeightLE3 = float64(missingLE3) / float64(cmp.MissingArcs)
	}
	cmp.WeightPairs = reservoir
	return cmp
}

func isConstant(v []float64) bool {
	for _, x := range v[1:] {
		if x != v[0] {
			return false
		}
	}
	return true
}
