package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dharma/internal/core"
	"dharma/internal/dht"
	"dharma/internal/folksonomy"
	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

func newLocalEngine(t *testing.T, cfg core.Config) (*core.Engine, *dht.Local) {
	t.Helper()
	store := dht.NewLocal()
	e, err := core.NewEngine(store, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e, store
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := core.NewEngine(dht.NewLocal(), core.Config{Mode: core.Approximated}); err == nil {
		t.Fatal("approximated engine without K accepted")
	}
	if _, err := core.NewEngine(dht.NewLocal(), core.Config{Mode: core.Approximated, K: 1}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestBlockKeysDistinct(t *testing.T) {
	types := []core.BlockType{core.BlockResourceTags, core.BlockTagResources,
		core.BlockTagNeighbors, core.BlockResourceURI}
	seen := map[string]string{}
	for _, name := range []string{"rock", "pop", "rock|1", "rock|2", "a|b|3"} {
		for _, bt := range types {
			k := core.BlockKey(name, bt).String()
			label := fmt.Sprintf("%s/%d", name, bt)
			if prev, dup := seen[k]; dup {
				t.Fatalf("key collision: %s and %s", prev, label)
			}
			seen[k] = label
		}
	}
	// Same (name, type) must be stable.
	if core.BlockKey("rock", core.BlockTagNeighbors) != core.BlockKey("rock", core.BlockTagNeighbors) {
		t.Fatal("BlockKey not deterministic")
	}
}

func TestInsertResourceCost(t *testing.T) {
	// Table I row 1: Insert(r, t1..m) costs 2+2m lookups in both modes.
	for _, mode := range []core.Mode{core.Naive, core.Approximated} {
		for m := 0; m <= 12; m++ {
			e, store := newLocalEngine(t, core.Config{Mode: mode, K: 3})
			tags := make([]string, m)
			for i := range tags {
				tags[i] = fmt.Sprintf("t%d", i)
			}
			before := store.Lookups()
			if err := e.InsertResource(context.Background(), "r", "uri:r", tags...); err != nil {
				t.Fatal(err)
			}
			got := store.Lookups() - before
			want := int64(2 + 2*m)
			if got != want {
				t.Fatalf("mode=%v m=%d: cost %d lookups, Table I says %d", mode, m, got, want)
			}
		}
	}
}

func TestInsertResourceDedupCost(t *testing.T) {
	e, store := newLocalEngine(t, core.Config{Mode: core.Naive})
	before := store.Lookups()
	if err := e.InsertResource(context.Background(), "r", "", "a", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if got := store.Lookups() - before; got != 2+2*2 {
		t.Fatalf("cost %d, want %d (duplicates must not be charged)", got, 2+2*2)
	}
}

func TestTagCostNaive(t *testing.T) {
	// Table I row 2, naive: Tag(r,t) costs 4+|Tags(r)| lookups (Tags(r)
	// counted without t itself).
	e, store := newLocalEngine(t, core.Config{Mode: core.Naive})
	tags := []string{"a", "b", "c", "d", "e"}
	if err := e.InsertResource(context.Background(), "r", "", tags...); err != nil {
		t.Fatal(err)
	}
	before := store.Lookups()
	if err := e.Tag(context.Background(), "r", "fresh"); err != nil {
		t.Fatal(err)
	}
	if got := store.Lookups() - before; got != 4+5 {
		t.Fatalf("new tag: cost %d, want %d", got, 4+5)
	}

	before = store.Lookups()
	if err := e.Tag(context.Background(), "r", "a"); err != nil { // re-tag: |Tags(r)\{a}| = 5
		t.Fatal(err)
	}
	if got := store.Lookups() - before; got != 4+5 {
		t.Fatalf("repeat tag: cost %d, want %d", got, 4+5)
	}
}

func TestTagCostApproximated(t *testing.T) {
	// Table I row 2, approximated: Tag(r,t) costs 4+k lookups however
	// many tags the resource carries.
	const k = 3
	e, store := newLocalEngine(t, core.Config{Mode: core.Approximated, K: k})
	var tags []string
	for i := 0; i < 40; i++ {
		tags = append(tags, fmt.Sprintf("t%02d", i))
	}
	if err := e.InsertResource(context.Background(), "r", "", tags...); err != nil {
		t.Fatal(err)
	}
	before := store.Lookups()
	if err := e.Tag(context.Background(), "r", "fresh"); err != nil {
		t.Fatal(err)
	}
	if got := store.Lookups() - before; got != 4+k {
		t.Fatalf("cost %d, want %d", got, 4+k)
	}

	// With fewer than k other tags, the subset is everything.
	e2, store2 := newLocalEngine(t, core.Config{Mode: core.Approximated, K: 10})
	if err := e2.InsertResource(context.Background(), "r", "", "x", "y"); err != nil {
		t.Fatal(err)
	}
	before = store2.Lookups()
	if err := e2.Tag(context.Background(), "r", "z"); err != nil {
		t.Fatal(err)
	}
	if got := store2.Lookups() - before; got != 4+2 {
		t.Fatalf("small resource: cost %d, want %d", got, 4+2)
	}
}

func TestSearchStepCost(t *testing.T) {
	// Table I row 3: a search step costs exactly 2 lookups.
	e, store := newLocalEngine(t, core.Config{Mode: core.Naive})
	if err := e.InsertResource(context.Background(), "r", "", "rock", "pop"); err != nil {
		t.Fatal(err)
	}
	before := store.Lookups()
	if _, _, err := e.SearchStep(context.Background(), "rock"); err != nil {
		t.Fatal(err)
	}
	if got := store.Lookups() - before; got != 2 {
		t.Fatalf("cost %d, want 2", got)
	}
}

func TestTagCostProperty(t *testing.T) {
	// Property: over random workloads the measured lookup cost of every
	// operation equals the Table I formula.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		k := 1 + rng.Intn(6)
		mode := core.Naive
		if trial%2 == 1 {
			mode = core.Approximated
		}
		e, store := newLocalEngine(t, core.Config{Mode: mode, K: k, Seed: int64(trial)})
		model := folksonomy.New()

		nRes := 0
		for op := 0; op < 150; op++ {
			if nRes == 0 || rng.Float64() < 0.2 {
				m := rng.Intn(8)
				tags := make([]string, 0, m)
				for len(tags) < m {
					tg := fmt.Sprintf("t%d", rng.Intn(20))
					dup := false
					for _, x := range tags {
						if x == tg {
							dup = true
						}
					}
					if !dup {
						tags = append(tags, tg)
					}
				}
				r := fmt.Sprintf("r%d", nRes)
				before := store.Lookups()
				if err := e.InsertResource(context.Background(), r, "", tags...); err != nil {
					t.Fatal(err)
				}
				if got := store.Lookups() - before; got != int64(2+2*len(tags)) {
					t.Fatalf("trial %d: insert m=%d cost %d", trial, len(tags), got)
				}
				if err := model.InsertResource(r, "", tags...); err != nil {
					t.Fatal(err)
				}
				nRes++
			} else {
				r := fmt.Sprintf("r%d", rng.Intn(nRes))
				tg := fmt.Sprintf("t%d", rng.Intn(20))
				others := model.TagDegree(r)
				if model.U(tg, r) > 0 {
					others-- // t itself is excluded from the reverse set
				}
				want := int64(4 + others)
				if mode == core.Approximated && others > k {
					want = int64(4 + k)
				}
				before := store.Lookups()
				if err := e.Tag(context.Background(), r, tg); err != nil {
					t.Fatal(err)
				}
				if got := store.Lookups() - before; got != want {
					t.Fatalf("trial %d: tag cost %d, want %d (others=%d mode=%v k=%d)",
						trial, got, want, others, mode, k)
				}
				if err := model.Tag(r, tg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestNaiveEngineMatchesTheoreticModel is the central correctness
// property: replaying any operation sequence through the naive engine
// must reproduce the in-memory model of §III exactly — same TRG weights,
// same FG arcs, same similarity values.
func TestNaiveEngineMatchesTheoreticModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e, store := newLocalEngine(t, core.Config{Mode: core.Naive, TopN: -1})
	model := folksonomy.New()

	nRes := 0
	for op := 0; op < 400; op++ {
		if nRes == 0 || rng.Float64() < 0.15 {
			var tags []string
			for i := 0; i < 6; i++ {
				if rng.Float64() < 0.5 {
					tags = append(tags, fmt.Sprintf("t%d", rng.Intn(12)))
				}
			}
			r := fmt.Sprintf("r%d", nRes)
			if err := e.InsertResource(context.Background(), r, "uri:"+r, tags...); err != nil {
				t.Fatal(err)
			}
			if err := model.InsertResource(r, "uri:"+r, tags...); err != nil {
				t.Fatal(err)
			}
			nRes++
		} else {
			r := fmt.Sprintf("r%d", rng.Intn(nRes))
			tg := fmt.Sprintf("t%d", rng.Intn(12))
			if err := e.Tag(context.Background(), r, tg); err != nil {
				t.Fatal(err)
			}
			if err := model.Tag(r, tg); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Compare FG adjacency per tag.
	for _, tg := range model.TagNames() {
		wantArcs := map[string]int{}
		for _, w := range model.Neighbors(tg) {
			wantArcs[w.Name] = w.Weight
		}
		got, err := e.Neighbors(context.Background(), tg)
		if err != nil {
			t.Fatal(err)
		}
		gotArcs := map[string]int{}
		for _, w := range got {
			if w.Weight != 0 {
				gotArcs[w.Name] = w.Weight
			}
		}
		if len(gotArcs) != len(wantArcs) {
			t.Fatalf("tag %s: %d arcs on DHT, model has %d (%v vs %v)",
				tg, len(gotArcs), len(wantArcs), gotArcs, wantArcs)
		}
		for t2, w := range wantArcs {
			if gotArcs[t2] != w {
				t.Fatalf("sim(%s,%s) = %d on DHT, model says %d", tg, t2, gotArcs[t2], w)
			}
		}
	}

	// Compare TRG weights via r̄ blocks.
	for _, r := range model.ResourceNames() {
		got, err := e.TagsOf(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		gotU := map[string]int{}
		for _, w := range got {
			gotU[w.Name] = w.Weight
		}
		for _, w := range model.Tags(r) {
			if gotU[w.Name] != w.Weight {
				t.Fatalf("u(%s,%s) = %d on DHT, model says %d", w.Name, r, gotU[w.Name], w.Weight)
			}
		}
		if len(gotU) != model.TagDegree(r) {
			t.Fatalf("resource %s: %d tags on DHT, model has %d", r, len(gotU), model.TagDegree(r))
		}
	}
	_ = store
}

func TestApproximationBForwardArcWeight(t *testing.T) {
	// When a tagging operation creates forward arcs, the approximated
	// engine writes weight 1 where the naive engine writes u(τ,r).
	build := func(mode core.Mode) *core.Engine {
		e, _ := newLocalEngine(t, core.Config{Mode: mode, K: 100})
		if err := e.InsertResource(context.Background(), "r", "", "a"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // u(a,r) = 5
			if err := e.Tag(context.Background(), "r", "a"); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Tag(context.Background(), "r", "fresh"); err != nil {
			t.Fatal(err)
		}
		return e
	}

	naive := build(core.Naive)
	ws, err := naive.Neighbors(context.Background(), "fresh")
	if err != nil || len(ws) != 1 || ws[0].Weight != 5 {
		t.Fatalf("naive sim(fresh,a) = %v (err %v), want 5", ws, err)
	}

	approx := build(core.Approximated)
	ws, err = approx.Neighbors(context.Background(), "fresh")
	if err != nil || len(ws) != 1 || ws[0].Weight != 1 {
		t.Fatalf("approx sim(fresh,a) = %v (err %v), want 1 (Approximation B)", ws, err)
	}
}

func TestApproximationBExistingArcGrowsTheoretically(t *testing.T) {
	// Approximation B dampens only arc creation; an arc that already
	// exists still grows by the theoretic increment u(τ,r).
	e, _ := newLocalEngine(t, core.Config{Mode: core.Approximated, K: 100})
	// Create arc (fresh,a) with weight 1 on r1 (u(a,r1)=1 at creation).
	if err := e.InsertResource(context.Background(), "r1", "", "a"); err != nil {
		t.Fatal(err)
	}
	if err := e.Tag(context.Background(), "r1", "fresh"); err != nil {
		t.Fatal(err)
	}
	// On r2, a carries weight 4; adding fresh (arc now exists) must add
	// the full u(a,r2)=4.
	if err := e.InsertResource(context.Background(), "r2", "", "a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Tag(context.Background(), "r2", "a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Tag(context.Background(), "r2", "fresh"); err != nil {
		t.Fatal(err)
	}
	ws, err := e.Neighbors(context.Background(), "fresh")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Name == "a" {
			if w.Weight != 1+4 {
				t.Fatalf("sim(fresh,a) = %d, want 5 (created at 1, then +u=4)", w.Weight)
			}
			return
		}
	}
	t.Fatal("arc (fresh,a) missing")
}

func TestApproximatedGraphIsBoundedByNaive(t *testing.T) {
	// The approximated FG must be a subgraph of the naive FG with
	// pointwise smaller-or-equal weights.
	rng := rand.New(rand.NewSource(17))
	naive, _ := newLocalEngine(t, core.Config{Mode: core.Naive})
	approx, _ := newLocalEngine(t, core.Config{Mode: core.Approximated, K: 2, Seed: 3})

	tags := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i := 0; i < 10; i++ {
		r := fmt.Sprintf("r%d", i)
		if err := naive.InsertResource(context.Background(), r, ""); err != nil {
			t.Fatal(err)
		}
		if err := approx.InsertResource(context.Background(), r, ""); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < 300; op++ {
		r := fmt.Sprintf("r%d", rng.Intn(10))
		tg := tags[rng.Intn(len(tags))]
		if err := naive.Tag(context.Background(), r, tg); err != nil {
			t.Fatal(err)
		}
		if err := approx.Tag(context.Background(), r, tg); err != nil {
			t.Fatal(err)
		}
	}

	for _, tg := range tags {
		nv, err := naive.Neighbors(context.Background(), tg)
		if err != nil {
			t.Fatal(err)
		}
		naiveW := map[string]int{}
		for _, w := range nv {
			naiveW[w.Name] = w.Weight
		}
		av, err := approx.Neighbors(context.Background(), tg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range av {
			if w.Weight == 0 {
				continue
			}
			nw, ok := naiveW[w.Name]
			if !ok {
				t.Fatalf("approximated arc (%s,%s) absent from naive graph", tg, w.Name)
			}
			if w.Weight > nw {
				t.Fatalf("sim(%s,%s): approx %d > naive %d", tg, w.Name, w.Weight, nw)
			}
		}
	}
}

func TestSearchStepFilteringAndOrder(t *testing.T) {
	e, _ := newLocalEngine(t, core.Config{Mode: core.Naive, TopN: 3})
	var tags []string
	for i := 0; i < 10; i++ {
		tags = append(tags, fmt.Sprintf("t%d", i))
	}
	if err := e.InsertResource(context.Background(), "r0", "", tags...); err != nil {
		t.Fatal(err)
	}
	// Make t1 strongly related to t0 (co-tag them on more resources).
	for i := 1; i < 5; i++ {
		r := fmt.Sprintf("rr%d", i)
		if err := e.InsertResource(context.Background(), r, "", "t0", "t1"); err != nil {
			t.Fatal(err)
		}
	}
	related, resources, err := e.SearchStep(context.Background(), "t0")
	if err != nil {
		t.Fatal(err)
	}
	if len(related) != 3 {
		t.Fatalf("TopN not applied to tags: %d", len(related))
	}
	if related[0].Name != "t1" {
		t.Fatalf("strongest neighbour = %+v, want t1", related[0])
	}
	for i := 1; i < len(related); i++ {
		if related[i].Weight > related[i-1].Weight {
			t.Fatal("related tags not sorted by similarity")
		}
	}
	if len(resources) != 3 {
		t.Fatalf("TopN not applied to resources: %d", len(resources))
	}
}

func TestSearchStepUnknownTag(t *testing.T) {
	e, _ := newLocalEngine(t, core.Config{Mode: core.Naive})
	if _, _, err := e.SearchStep(context.Background(), "ghost"); !errors.Is(err, core.ErrNoSuchTag) {
		t.Fatalf("want ErrNoSuchTag, got %v", err)
	}
}

func TestResolveURI(t *testing.T) {
	e, _ := newLocalEngine(t, core.Config{Mode: core.Naive})
	if err := e.InsertResource(context.Background(), "song", "http://example/song.ogg", "rock"); err != nil {
		t.Fatal(err)
	}
	uri, err := e.ResolveURI(context.Background(), "song")
	if err != nil {
		t.Fatal(err)
	}
	if uri != "http://example/song.ogg" {
		t.Fatalf("URI = %q", uri)
	}
	if _, err := e.ResolveURI(context.Background(), "ghost"); err == nil {
		t.Fatal("ResolveURI on missing resource succeeded")
	}
}

func TestApproximationADeterministicUnderSeed(t *testing.T) {
	run := func() []folksonomy.Weighted {
		e, _ := newLocalEngine(t, core.Config{Mode: core.Approximated, K: 2, Seed: 77})
		if err := e.InsertResource(context.Background(), "r", "", "a", "b", "c", "d", "e", "f"); err != nil {
			t.Fatal(err)
		}
		if err := e.Tag(context.Background(), "r", "x"); err != nil {
			t.Fatal(err)
		}
		var out []folksonomy.Weighted
		for _, tg := range []string{"a", "b", "c", "d", "e", "f"} {
			ws, err := e.Neighbors(context.Background(), tg)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range ws {
				if w.Name == "x" {
					out = append(out, folksonomy.Weighted{Name: tg, Weight: w.Weight})
				}
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different subset sizes: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("subset differs under same seed: %v vs %v", a, b)
		}
	}
	if len(a) != 2 {
		t.Fatalf("reverse updates = %d, want K=2", len(a))
	}
}

// TestEngineOverRealOverlay runs the same workload over a live Kademlia
// cluster and over the in-process store; the resulting graphs must agree.
func TestEngineOverRealOverlay(t *testing.T) {
	cl, err := kademlia.NewCluster(kademlia.ClusterConfig{
		N:    24,
		Node: kademlia.Config{K: 8, Alpha: 3},
		Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	over, err := core.NewEngine(dht.NewOverlay(cl.Nodes[4], nil), core.Config{Mode: core.Approximated, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.NewEngine(dht.NewLocal(), core.Config{Mode: core.Approximated, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	type op struct {
		insert bool
		r, t   string
		tags   []string
	}
	ops := []op{
		{insert: true, r: "r1", tags: []string{"rock", "pop"}},
		{insert: true, r: "r2", tags: []string{"rock", "indie", "live"}},
		{r: "r1", t: "indie"},
		{r: "r1", t: "rock"},
		{r: "r2", t: "pop"},
		{insert: true, r: "r3", tags: []string{"pop"}},
		{r: "r3", t: "rock"},
	}
	for _, o := range ops {
		if o.insert {
			if err := over.InsertResource(context.Background(), o.r, "uri:"+o.r, o.tags...); err != nil {
				t.Fatal(err)
			}
			if err := local.InsertResource(context.Background(), o.r, "uri:"+o.r, o.tags...); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := over.Tag(context.Background(), o.r, o.t); err != nil {
				t.Fatal(err)
			}
			if err := local.Tag(context.Background(), o.r, o.t); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tg := range []string{"rock", "pop", "indie", "live"} {
		a, err := over.Neighbors(context.Background(), tg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := local.Neighbors(context.Background(), tg)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("tag %s: overlay %v vs local %v", tg, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tag %s entry %d: overlay %+v vs local %+v", tg, i, a[i], b[i])
			}
		}
	}
	uri, err := over.ResolveURI(context.Background(), "r2")
	if err != nil || uri != "uri:r2" {
		t.Fatalf("overlay ResolveURI = %q, %v", uri, err)
	}
}

func TestTagOnExistingTagCreatesNoPhantomBlock(t *testing.T) {
	// Re-tagging a resource whose tag set is {t} produces an empty
	// forward-arc append. The lookup is still charged (Table I), but no
	// empty t̂ block may materialize: Has flipping true and EntryCount
	// moving would skew the hotspot accounting.
	e, store := newLocalEngine(t, core.Config{Mode: core.Approximated, K: 5})
	if err := e.InsertResource(context.Background(), "r", "uri:r", "solo"); err != nil {
		t.Fatal(err)
	}
	tHat := core.BlockKey("solo", core.BlockTagNeighbors)
	if store.Raw().Has(tHat) {
		t.Fatal("single-tag insert materialized an empty t̂ block")
	}
	blocks, entries := store.Raw().Len(), store.Raw().EntryCount()

	before := store.Lookups()
	if err := e.Tag(context.Background(), "r", "solo"); err != nil {
		t.Fatal(err)
	}
	// Cost stays 4+0: 1 get of r̄, appends of r̄/t̄/t̂, no reverse arcs.
	if got := store.Lookups() - before; got != 4 {
		t.Fatalf("re-tag cost %d lookups, want 4", got)
	}
	if store.Raw().Has(tHat) {
		t.Fatal("re-tag materialized a phantom empty t̂ block")
	}
	if store.Raw().Len() != blocks || store.Raw().EntryCount() != entries {
		t.Fatalf("storage accounting moved: blocks %d->%d entries %d->%d",
			blocks, store.Raw().Len(), entries, store.Raw().EntryCount())
	}
}

// selectiveFailStore serves a canned r̄ read, fails appends to a chosen
// set of block keys — a stand-in for an overlay where some replica sets
// are unreachable — and records every call the engine makes, in order.
// A batch applies each item on its own, as dht.Overlay does: a failing
// item does not stop its siblings.
type selectiveFailStore struct {
	prior   []wire.Entry        // served for every Get
	fail    map[kadid.ID]string // failing keys -> name for the error
	calls   []storeCall
	applied map[kadid.ID]bool // keys whose append succeeded
}

// storeCall is one dht.Store call: its method and the keys it carried
// (one for Get and Append, one per item for AppendBatch).
type storeCall struct {
	op   string // "get", "append" or "batch"
	keys []kadid.ID
}

// apply fails an append to a failing key and records any other as applied.
func (s *selectiveFailStore) apply(key kadid.ID) error {
	if name, ok := s.fail[key]; ok {
		return fmt.Errorf("replica set for %s unreachable", name)
	}
	s.applied[key] = true
	return nil
}

func (s *selectiveFailStore) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	s.calls = append(s.calls, storeCall{op: "append", keys: []kadid.ID{key}})
	return s.apply(key)
}

func (s *selectiveFailStore) AppendBatch(ctx context.Context, items []dht.BatchItem) error {
	c := storeCall{op: "batch"}
	errs := make([]error, len(items))
	for i := range items {
		c.keys = append(c.keys, items[i].Key)
		errs[i] = s.apply(items[i].Key)
	}
	s.calls = append(s.calls, c)
	return errors.Join(errs...)
}

func (s *selectiveFailStore) Get(_ context.Context, key kadid.ID, _ int) ([]wire.Entry, error) {
	s.calls = append(s.calls, storeCall{op: "get", keys: []kadid.ID{key}})
	return slices.Clone(s.prior), nil
}

// newSelectiveFailStore serves tags as Tags(r) and fails the t̂ block of
// every tag in failing.
func newSelectiveFailStore(tags []string, failing ...string) *selectiveFailStore {
	s := &selectiveFailStore{fail: make(map[kadid.ID]string), applied: make(map[kadid.ID]bool)}
	for _, tag := range tags {
		s.prior = append(s.prior, wire.Entry{Field: tag, Count: 1})
	}
	for _, tag := range failing {
		s.failBlock(tag, core.BlockTagNeighbors)
	}
	return s
}

// failBlock makes appends to name's block of type bt fail.
func (s *selectiveFailStore) failBlock(name string, bt core.BlockType) {
	s.fail[core.BlockKey(name, bt)] = fmt.Sprintf("%s/%d", name, bt) // e.g. "a/3" for t̂_a
}

func TestReverseArcFailuresAllReported(t *testing.T) {
	// The batched reverse-arc append must surface every failed arc, not
	// just one: a caller counting failed block updates learns them from
	// what Tag returns.
	t.Run("batched", func(t *testing.T) {
		store := newSelectiveFailStore([]string{"a", "b", "c", "d"}, "a", "c")
		e, err := core.NewEngine(store, core.Config{Mode: core.Naive})
		if err != nil {
			t.Fatal(err)
		}
		err = e.Tag(context.Background(), "r", "fresh")
		if err == nil {
			t.Fatal("Tag succeeded despite failing reverse arcs")
		}
		for _, want := range []string{"a", "c"} {
			if !strings.Contains(err.Error(), "replica set for "+want) {
				t.Fatalf("error dropped the %q failure:\n%v", want, err)
			}
		}
	})
}

func TestInsertAndTagCostsSurviveBatching(t *testing.T) {
	// The batched write path must not change Table-I accounting: every
	// batch item is one block operation.
	e, store := newLocalEngine(t, core.Config{Mode: core.Approximated, K: 2})

	before := store.Lookups()
	if err := e.InsertResource(context.Background(), "r", "uri:r", "t0", "t1", "t2", "t3"); err != nil {
		t.Fatal(err)
	}
	if got, want := store.Lookups()-before, int64(2+2*4); got != want {
		t.Fatalf("insert cost %d lookups, want %d", got, want)
	}

	before = store.Lookups()
	if err := e.Tag(context.Background(), "r", "fresh"); err != nil {
		t.Fatal(err)
	}
	if got, want := store.Lookups()-before, int64(4+2); got != want {
		t.Fatalf("tag cost %d lookups, want 4+k=%d", got, want)
	}
}

// checkCalls asserts the engine's store calls, in order: single names
// the key of every call but the last, which must be one batch of
// wantBatch distinct keys, all drawn from batch and including every key
// in mustHave.
func checkCalls(t *testing.T, got []storeCall, single []kadid.ID, batch []kadid.ID, wantBatch int, mustHave ...kadid.ID) {
	t.Helper()
	if len(got) != len(single)+1 {
		t.Fatalf("%d store calls, want %d: %+v", len(got), len(single)+1, got)
	}
	for i, key := range single {
		if len(got[i].keys) != 1 || got[i].keys[0] != key {
			t.Fatalf("call %d (%s) keys %v, want [%s]", i, got[i].op, got[i].keys, key)
		}
	}
	last := got[len(got)-1]
	if last.op != "batch" {
		t.Fatalf("last call is %s, want one batch", last.op)
	}
	if len(last.keys) != wantBatch {
		t.Fatalf("batch of %d items, want %d", len(last.keys), wantBatch)
	}
	allowed := make(map[kadid.ID]bool, len(batch))
	for _, k := range batch {
		allowed[k] = true
	}
	seen := make(map[kadid.ID]bool, len(last.keys))
	for _, k := range last.keys {
		if seen[k] {
			t.Fatalf("batch repeats key %s", k)
		}
		if !allowed[k] {
			t.Fatalf("batch carries unexpected key %s", k)
		}
		seen[k] = true
	}
	for _, k := range mustHave {
		if !seen[k] {
			t.Fatalf("batch lacks key %s", k)
		}
	}
}

// TestWriteCriticalPath pins the order of an operation's store calls:
// a Tag is Get(r̄), Append(r̄), then one batch of t̄, t̂_t and the reverse
// t̂_τ; an insertion is Append(r̃), then one batch of r̄, every t̄_i and
// every t̂_i. The lone first write is the probe: when it fails, no batch
// is sent and the error names its block.
func TestWriteCriticalPath(t *testing.T) {
	ctx := context.Background()
	prior := []string{"a", "b", "c", "d", "e"}
	rBar, rURI := core.BlockKey("r", core.BlockResourceTags), core.BlockKey("r", core.BlockResourceURI)

	tagCases := []struct {
		name   string
		cfg    core.Config
		t      string
		others []string
		want   int // batch items: 2 + reverse arcs
	}{
		{"naive/new", core.Config{Mode: core.Naive}, "fresh", prior, 2 + 5},
		{"naive/retag", core.Config{Mode: core.Naive}, "c", []string{"a", "b", "d", "e"}, 2 + 4},
		{"approximated/K<others", core.Config{Mode: core.Approximated, K: 3}, "fresh", prior, 2 + 3},
		{"approximated/K>others", core.Config{Mode: core.Approximated, K: 10}, "fresh", prior, 2 + 5},
		{"approximated/retag", core.Config{Mode: core.Approximated, K: 2}, "c", []string{"a", "b", "d", "e"}, 2 + 2},
	}
	for _, c := range tagCases {
		t.Run("Tag/"+c.name, func(t *testing.T) {
			store := newSelectiveFailStore(prior)
			e, err := core.NewEngine(store, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Tag(ctx, "r", c.t); err != nil {
				t.Fatal(err)
			}
			if store.calls[0].op != "get" || store.calls[1].op != "append" {
				t.Fatalf("Tag opens with %s, %s; want get, append", store.calls[0].op, store.calls[1].op)
			}
			tBar, tHat := core.BlockKey(c.t, core.BlockTagResources), core.BlockKey(c.t, core.BlockTagNeighbors)
			batch := []kadid.ID{tBar, tHat}
			for _, o := range c.others {
				batch = append(batch, core.BlockKey(o, core.BlockTagNeighbors))
			}
			checkCalls(t, store.calls, []kadid.ID{rBar, rBar}, batch, c.want, tBar, tHat)
		})
	}

	for _, mode := range []core.Mode{core.Naive, core.Approximated} {
		for _, m := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("InsertResource/%v/m=%d", mode, m), func(t *testing.T) {
				store := newSelectiveFailStore(nil)
				e, err := core.NewEngine(store, core.Config{Mode: mode, K: 1})
				if err != nil {
					t.Fatal(err)
				}
				tags := prior[:m]
				if err := e.InsertResource(ctx, "r", "uri:r", tags...); err != nil {
					t.Fatal(err)
				}
				if store.calls[0].op != "append" {
					t.Fatalf("InsertResource opens with %s; want append", store.calls[0].op)
				}
				batch := []kadid.ID{rBar}
				for _, tag := range tags {
					batch = append(batch, core.BlockKey(tag, core.BlockTagResources), core.BlockKey(tag, core.BlockTagNeighbors))
				}
				checkCalls(t, store.calls, []kadid.ID{rURI}, batch, 1+2*m, batch...)
			})
		}
	}

	t.Run("Tag/failed probe sends no batch", func(t *testing.T) {
		store := newSelectiveFailStore(prior)
		store.failBlock("r", core.BlockResourceTags)
		e, _ := core.NewEngine(store, core.Config{Mode: core.Naive})
		err := e.Tag(ctx, "r", "fresh")
		if err == nil || !strings.Contains(err.Error(), "(r̄)") {
			t.Fatalf("Tag error %v does not name r̄", err)
		}
		if len(store.calls) != 2 {
			t.Fatalf("%d store calls after a failed r̄ append, want 2 (get, append): %+v", len(store.calls), store.calls)
		}
	})

	t.Run("InsertResource/failed probe sends no batch", func(t *testing.T) {
		store := newSelectiveFailStore(nil)
		store.failBlock("r", core.BlockResourceURI)
		e, _ := core.NewEngine(store, core.Config{Mode: core.Naive})
		err := e.InsertResource(ctx, "r", "uri:r", "a", "b")
		if err == nil || !strings.Contains(err.Error(), "(r̃)") {
			t.Fatalf("InsertResource error %v does not name r̃", err)
		}
		if len(store.calls) != 1 {
			t.Fatalf("%d store calls after a failed r̃ append, want 1: %+v", len(store.calls), store.calls)
		}
	})

	t.Run("Tag/failed batch item spares its siblings", func(t *testing.T) {
		store := newSelectiveFailStore(prior, "b")
		store.failBlock("fresh", core.BlockTagResources)
		e, _ := core.NewEngine(store, core.Config{Mode: core.Naive})
		err := e.Tag(ctx, "r", "fresh")
		if err == nil {
			t.Fatal("Tag succeeded despite failing batch items")
		}
		for _, want := range []string{"b/3", "fresh/2"} {
			if !strings.Contains(err.Error(), "replica set for "+want) {
				t.Fatalf("error dropped the %s failure:\n%v", want, err)
			}
		}
		for _, k := range []kadid.ID{rBar, core.BlockKey("fresh", core.BlockTagNeighbors),
			core.BlockKey("a", core.BlockTagNeighbors), core.BlockKey("e", core.BlockTagNeighbors)} {
			if !store.applied[k] {
				t.Fatalf("block %s not applied beside the failing items", k)
			}
		}
	})

	t.Run("InsertResource/failed batch item spares its siblings", func(t *testing.T) {
		store := newSelectiveFailStore(nil, "a")
		store.failBlock("r", core.BlockResourceTags)
		e, _ := core.NewEngine(store, core.Config{Mode: core.Naive})
		err := e.InsertResource(ctx, "r", "uri:r", "a", "b")
		if err == nil {
			t.Fatal("InsertResource succeeded despite failing batch items")
		}
		for _, want := range []string{"r/1", "a/3"} {
			if !strings.Contains(err.Error(), "replica set for "+want) {
				t.Fatalf("error dropped the %s failure:\n%v", want, err)
			}
		}
		for _, k := range []kadid.ID{rURI, core.BlockKey("a", core.BlockTagResources),
			core.BlockKey("b", core.BlockTagResources), core.BlockKey("b", core.BlockTagNeighbors)} {
			if !store.applied[k] {
				t.Fatalf("block %s not applied beside the failing items", k)
			}
		}
	})
}
