package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"dharma/internal/core"
	"dharma/internal/dataset"
	"dharma/internal/dht"
	"dharma/internal/kadid"
	"dharma/internal/search"
	"dharma/internal/wire"
)

func tinyData(t *testing.T) (*dataset.Dataset, []dataset.Annotation) {
	t.Helper()
	d := dataset.Generate(dataset.Tiny(11))
	return d, d.Shuffled(7)
}

func TestEvolveExactWhenUnapproximated(t *testing.T) {
	// With Approximation A and B both disabled, the replay must yield
	// the theoretic FG exactly.
	d, schedule := tinyData(t)
	orig := d.BuildGraph()
	res := Evolve(schedule, EvolutionConfig{K: 0, ApproxB: false})

	for _, tag := range orig.TagNames() {
		want := orig.Neighbors(tag)
		if len(want) != res.NeighborDegree(tag) {
			t.Fatalf("tag %s: degree %d vs theoretic %d", tag, res.NeighborDegree(tag), len(want))
		}
		for _, w := range want {
			if got := res.Sim(tag, w.Name); got != w.Weight {
				t.Fatalf("sim(%s,%s) = %d, theoretic %d", tag, w.Name, got, w.Weight)
			}
		}
	}
	if res.Ops != len(schedule) {
		t.Fatalf("Ops = %d, want %d", res.Ops, len(schedule))
	}
}

func TestEvolveOrderInvariantWhenExact(t *testing.T) {
	// The exact model is order-independent: two different schedules of
	// the same multiset must produce the same FG.
	d, _ := tinyData(t)
	a := Evolve(d.Shuffled(1), EvolutionConfig{})
	b := Evolve(d.Shuffled(2), EvolutionConfig{})
	if a.NumArcs() != b.NumArcs() {
		t.Fatalf("arc counts differ: %d vs %d", a.NumArcs(), b.NumArcs())
	}
	for _, tag := range a.TagNames() {
		for _, w := range a.Neighbors(tag) {
			if b.Sim(tag, w.Name) != w.Weight {
				t.Fatalf("sim(%s,%s) differs across orders", tag, w.Name)
			}
		}
	}
}

// noInitStore drops Approximation B from an approximated engine: the
// conditional create travels as Entry.Init on the t̂ append, so zeroing
// it makes a new forward arc start at u(τ,r). The engine's t̂ append
// may travel alone or inside a batch, so both write paths zero it.
type noInitStore struct{ dht.Store }

func (s noInitStore) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	return s.Store.Append(ctx, key, withoutInit(entries))
}

func (s noInitStore) AppendBatch(ctx context.Context, items []dht.BatchItem) error {
	plain := slices.Clone(items)
	for i := range plain {
		plain[i].Entries = withoutInit(plain[i].Entries)
	}
	return s.Store.AppendBatch(ctx, plain)
}

func withoutInit(entries []wire.Entry) []wire.Entry {
	plain := slices.Clone(entries)
	for i := range plain {
		plain[i].Init = 0
	}
	return plain
}

// TestEvolveMirrorsEngine is the cross-validation: the fast simulator,
// seeded like the real DHARMA engine, must produce the identical graph
// for the identical schedule, in every configuration the reproduction
// evolves — the approximated k sweep, A1's "B only" and "A only" rows
// and A5's exact graph.
func TestEvolveMirrorsEngine(t *testing.T) {
	_, schedule := tinyData(t)
	const seed = 99
	type mirror struct {
		name   string
		eng    core.Config
		noInit bool
		sim    EvolutionConfig
	}
	var cases []mirror
	for _, k := range []int{1, 2, 5, 10, 25, 100, 500} {
		cases = append(cases, mirror{
			name: fmt.Sprintf("approximated/k=%d", k),
			eng:  core.Config{Mode: core.Approximated, K: k},
			sim:  EvolutionConfig{K: k, ApproxB: true},
		})
	}
	cases = append(cases,
		mirror{
			name: "B-only",
			eng:  core.Config{Mode: core.Approximated, K: math.MaxInt},
			sim:  EvolutionConfig{K: 0, ApproxB: true},
		},
		mirror{
			name:   "A-only/k=1",
			eng:    core.Config{Mode: core.Approximated, K: 1},
			noInit: true,
			sim:    EvolutionConfig{K: 1, ApproxB: false},
		},
		mirror{
			name: "exact",
			eng:  core.Config{Mode: core.Naive},
			sim:  EvolutionConfig{},
		},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var store dht.Store = dht.NewLocal()
			if c.noInit {
				store = noInitStore{store}
			}
			c.eng.Seed, c.eng.TopN = seed, -1
			eng, err := core.NewEngine(store, c.eng)
			if err != nil {
				t.Fatal(err)
			}
			inserted := map[string]bool{}
			for _, a := range schedule {
				if !inserted[a.Resource] {
					if err := eng.InsertResource(context.Background(), a.Resource, ""); err != nil {
						t.Fatal(err)
					}
					inserted[a.Resource] = true
				}
				if err := eng.Tag(context.Background(), a.Resource, a.Tag); err != nil {
					t.Fatal(err)
				}
			}

			c.sim.Seed = seed
			res := Evolve(schedule, c.sim)

			for _, tag := range res.TagNames() {
				engArcs, err := eng.Neighbors(context.Background(), tag)
				if err != nil {
					t.Fatal(err)
				}
				engW := map[string]int{}
				for _, w := range engArcs {
					if w.Weight != 0 {
						engW[w.Name] = w.Weight
					}
				}
				simArcs := res.Neighbors(tag)
				if len(simArcs) != len(engW) {
					t.Fatalf("tag %s: simulator %d arcs, engine %d", tag, len(simArcs), len(engW))
				}
				for _, w := range simArcs {
					if engW[w.Name] != w.Weight {
						t.Fatalf("sim(%s,%s): simulator %d, engine %d", tag, w.Name, w.Weight, engW[w.Name])
					}
				}
			}
		})
	}
}

func TestEvolveApproxSubgraphOfExact(t *testing.T) {
	d, schedule := tinyData(t)
	orig := d.BuildGraph()
	for _, k := range []int{1, 3, 10} {
		res := Evolve(schedule, EvolutionConfig{K: k, ApproxB: true, Seed: int64(k)})
		for _, tag := range res.TagNames() {
			for _, w := range res.Neighbors(tag) {
				ow := orig.Sim(tag, w.Name)
				if ow == 0 {
					t.Fatalf("k=%d: spurious arc (%s,%s)", k, tag, w.Name)
				}
				if w.Weight > ow {
					t.Fatalf("k=%d: sim(%s,%s) approx %d > theoretic %d", k, tag, w.Name, w.Weight, ow)
				}
			}
		}
	}
}

func TestEvolveReverseUpdatesBounded(t *testing.T) {
	_, schedule := tinyData(t)
	const k = 2
	res := Evolve(schedule, EvolutionConfig{K: k, ApproxB: true, Seed: 1})
	if res.ReverseUpdates > int64(k*len(schedule)) {
		t.Fatalf("reverse updates %d exceed k·ops = %d", res.ReverseUpdates, k*len(schedule))
	}
	unbounded := Evolve(schedule, EvolutionConfig{K: 0, ApproxB: true, Seed: 1})
	if unbounded.ReverseUpdates <= res.ReverseUpdates {
		t.Fatal("disabling Approximation A did not increase reverse updates")
	}
}

func TestEvolveRecallGrowsWithK(t *testing.T) {
	d, schedule := tinyData(t)
	orig := d.BuildGraph()
	prev := -1.0
	for _, k := range []int{1, 5, 20} {
		res := Evolve(schedule, EvolutionConfig{K: k, ApproxB: true, Seed: 4})
		cmp := Compare(orig, res, CompareOptions{Seed: 4})
		var sum float64
		for _, r := range cmp.Recall {
			sum += r
		}
		mean := sum / float64(len(cmp.Recall))
		if mean < prev-0.02 { // allow sampling noise
			t.Fatalf("recall regressed as k grew: k=%d mean %.3f < %.3f", k, mean, prev)
		}
		prev = mean
	}
}

func TestCompareMetricsRanges(t *testing.T) {
	d, schedule := tinyData(t)
	orig := d.BuildGraph()
	res := Evolve(schedule, EvolutionConfig{K: 1, ApproxB: true, Seed: 5})
	cmp := Compare(orig, res, CompareOptions{WeightSample: 500, Seed: 5})

	if len(cmp.Recall) == 0 || len(cmp.Tau) == 0 || len(cmp.Theta) == 0 {
		t.Fatal("comparison produced no samples")
	}
	for _, r := range cmp.Recall {
		if r < 0 || r > 1 {
			t.Fatalf("recall %v out of range", r)
		}
	}
	for _, v := range cmp.Tau {
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Fatalf("tau %v out of range", v)
		}
	}
	for _, v := range cmp.Theta {
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Fatalf("theta %v out of range", v)
		}
	}
	for _, v := range cmp.Sim1 {
		if v < 0 || v > 1 {
			t.Fatalf("sim1 %v out of range", v)
		}
	}
	if cmp.MissingArcs == 0 {
		t.Fatal("k=1 on a dense dataset must drop some arcs")
	}
	if cmp.MissingWeightLE3 < 0.5 {
		t.Fatalf("missing arcs with weight<=3 = %.2f; the approximation should drop mostly noise", cmp.MissingWeightLE3)
	}
	if len(cmp.WeightPairs) == 0 || len(cmp.WeightPairs) > 500 {
		t.Fatalf("weight sample size %d", len(cmp.WeightPairs))
	}
	if len(cmp.DegreePairs) != len(cmp.Recall) {
		t.Fatal("degree pairs must align with per-tag recall samples")
	}
}

func TestCompareExactGraphIsPerfect(t *testing.T) {
	d, schedule := tinyData(t)
	orig := d.BuildGraph()
	res := Evolve(schedule, EvolutionConfig{}) // exact replay
	cmp := Compare(orig, res, CompareOptions{Seed: 1})
	for _, r := range cmp.Recall {
		if r != 1 {
			t.Fatalf("recall %v on exact replay", r)
		}
	}
	for _, v := range cmp.Tau {
		if v < 0.999 {
			t.Fatalf("tau %v on exact replay", v)
		}
	}
	if cmp.MissingArcs != 0 {
		t.Fatalf("%d missing arcs on exact replay", cmp.MissingArcs)
	}
}

func TestRunSearches(t *testing.T) {
	d, _ := tinyData(t)
	g := d.BuildGraph()
	v := search.NewFolkView(g)
	seeds := dataset.PopularTags(g, 5)

	out := RunSearches(v, SearchConfig{Seeds: seeds, RandomRuns: 10, Seed: 3})
	if n := len(out.Steps[search.First]); n != 5 {
		t.Fatalf("first runs = %d, want 5", n)
	}
	if n := len(out.Steps[search.Last]); n != 5 {
		t.Fatalf("last runs = %d, want 5", n)
	}
	if n := len(out.Steps[search.Random]); n != 50 {
		t.Fatalf("random runs = %d, want 50", n)
	}
	for strat, steps := range out.Steps {
		for _, s := range steps {
			if s < 1 {
				t.Fatalf("%v: path of %v steps", strat, s)
			}
		}
	}
}

func TestRunSearchesDeterministic(t *testing.T) {
	d, _ := tinyData(t)
	g := d.BuildGraph()
	seeds := dataset.PopularTags(g, 3)
	run := func() SearchOutcome {
		return RunSearches(search.NewFolkView(g), SearchConfig{Seeds: seeds, RandomRuns: 5, Seed: 8})
	}
	a, b := run(), run()
	for strat := range a.Steps {
		if len(a.Steps[strat]) != len(b.Steps[strat]) {
			t.Fatalf("%v: run sizes differ", strat)
		}
		for i := range a.Steps[strat] {
			if a.Steps[strat][i] != b.Steps[strat][i] {
				t.Fatalf("%v: path lengths differ at %d", strat, i)
			}
		}
	}
}
