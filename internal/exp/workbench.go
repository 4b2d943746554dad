// Package exp contains one driver per table and figure of the paper's
// evaluation section, plus the ablations and extensions listed in
// README "Reproducing the paper". Each
// driver returns a structured result that renders to text (the same
// rows/series the paper reports, with the paper's own numbers printed
// alongside for comparison) and, for figures, dumps CSV series.
//
// Drivers share a Workbench that lazily builds and caches the expensive
// artifacts — the synthetic dataset, its theoretic graph, the shuffled
// tagging schedule and one evolution replay per connection parameter k —
// so a full harness run pays for each only once. Reproduce runs every
// driver in the paper's order; dharma-bench and the golden test both
// call it. The drivers that need an overlay (Table I, A3, A6) boot it
// through dharma.NewSystem.
package exp

import (
	"context"
	"sort"
	"sync"

	"dharma"
	"dharma/internal/dataset"
	"dharma/internal/folksonomy"
	"dharma/internal/sim"
)

// Workbench caches the shared inputs of the §V experiments.
type Workbench struct {
	// Cfg describes the synthetic workload.
	Cfg dataset.Config
	// ShuffleSeed orders the §V-B tagging schedule.
	ShuffleSeed int64
	// Seed drives every other source of randomness in the experiments.
	Seed int64

	mu       sync.Mutex
	data     *dataset.Dataset
	graph    *folksonomy.Graph
	stats    *dataset.Stats
	schedule []dataset.Annotation
	evos     map[int]*sim.Result
}

// NewWorkbench creates a workbench over the given workload description.
func NewWorkbench(cfg dataset.Config) *Workbench {
	return &Workbench{Cfg: cfg, ShuffleSeed: cfg.Seed + 1, Seed: cfg.Seed + 2,
		evos: make(map[int]*sim.Result)}
}

// NewWorkbenchFromDataset runs the experiments on an existing dataset
// (e.g. a real crawl loaded from CSV) instead of generating one.
func NewWorkbenchFromDataset(d *dataset.Dataset, seed int64) *Workbench {
	return &Workbench{Cfg: d.Config, ShuffleSeed: seed + 1, Seed: seed + 2,
		data: d, evos: make(map[int]*sim.Result)}
}

// Dataset returns the generated workload, building it on first use.
func (w *Workbench) Dataset() *dataset.Dataset {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.data == nil {
		w.data = dataset.Generate(w.Cfg)
	}
	return w.data
}

// Graph returns the theoretic TRG+FG of the workload.
func (w *Workbench) Graph() *folksonomy.Graph {
	d := w.Dataset()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.graph == nil {
		w.graph = d.BuildGraph()
	}
	return w.graph
}

// Stats returns the §V-A structural statistics.
func (w *Workbench) Stats() dataset.Stats {
	d := w.Dataset()
	g := w.Graph()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stats == nil {
		st := d.ComputeStats(g)
		w.stats = &st
	}
	return *w.stats
}

// Schedule returns the §V-B tagging schedule (a seeded permutation of
// the annotation instances).
func (w *Workbench) Schedule() []dataset.Annotation {
	d := w.Dataset()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.schedule == nil {
		w.schedule = d.Shuffled(w.ShuffleSeed)
	}
	return w.schedule
}

// Evolution returns the approximated FG for connection parameter k,
// replaying the schedule on first use (Approximations A and B active).
func (w *Workbench) Evolution(k int) *sim.Result {
	schedule := w.Schedule()
	w.mu.Lock()
	defer w.mu.Unlock()
	if r, ok := w.evos[k]; ok {
		return r
	}
	r := sim.Evolve(schedule, sim.EvolutionConfig{K: k, ApproxB: true, Seed: w.Seed})
	w.evos[k] = r
	return r
}

// PopularTags returns the n most popular tags of the workload.
func (w *Workbench) PopularTags(n int) []string {
	return dataset.PopularTags(w.Graph(), n)
}

// publish replays the first annotations entries of the schedule through
// peer p — each resource inserted once, on its first annotation, then
// tagged — and returns how often each tag was applied in that slice.
func (w *Workbench) publish(p *dharma.Peer, annotations int) (map[string]int, error) {
	schedule := w.Schedule()
	if len(schedule) > annotations {
		schedule = schedule[:annotations]
	}
	inserted := map[string]bool{}
	tagPop := map[string]int{}
	for _, a := range schedule {
		if !inserted[a.Resource] {
			if err := p.InsertResource(context.Background(), a.Resource, "uri:"+a.Resource, nil); err != nil {
				return nil, err
			}
			inserted[a.Resource] = true
		}
		if err := p.Tag(context.Background(), a.Resource, a.Tag); err != nil {
			return nil, err
		}
		tagPop[a.Tag]++
	}
	return tagPop, nil
}

// topTags returns the n most applied tags of pop, by count descending
// and then name ascending.
func topTags(pop map[string]int, n int) []string {
	all := make([]string, 0, len(pop))
	for t := range pop {
		all = append(all, t)
	}
	sort.Slice(all, func(i, j int) bool {
		if pop[all[i]] != pop[all[j]] {
			return pop[all[i]] > pop[all[j]]
		}
		return all[i] < all[j]
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}
