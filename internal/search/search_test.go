package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dharma/internal/core"
	"dharma/internal/dht"
	"dharma/internal/folksonomy"
)

// buildTestGraph constructs a folksonomy with a clear hierarchy:
// "music" co-occurs with everything, genres with their subgenres, and
// subgenres with a handful of resources each.
func buildTestGraph(t *testing.T) *folksonomy.Graph {
	t.Helper()
	g := folksonomy.New()
	genres := map[string][]string{
		"rock":       {"indie", "metal", "punk"},
		"electronic": {"house", "techno", "ambient"},
	}
	id := 0
	for genre, subs := range genres {
		for _, sub := range subs {
			for i := 0; i < 6; i++ {
				r := fmt.Sprintf("r%d", id)
				id++
				if err := g.InsertResource(r, "", "music", genre, sub); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// A few broad resources tagged only with top-level tags.
	for i := 0; i < 4; i++ {
		r := fmt.Sprintf("broad%d", i)
		if err := g.InsertResource(r, "", "music", "rock", "electronic"); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRunTerminates(t *testing.T) {
	g := buildTestGraph(t)
	v := NewFolkView(g)
	for _, strat := range []Strategy{First, Last, Random} {
		res, _ := Run(context.Background(), v, "music", strat, Options{MinResources: 3, Rng: rand.New(rand.NewSource(1))})
		if res.Steps() < 1 {
			t.Fatalf("%v: empty path", strat)
		}
		if res.Reason == StepLimit {
			t.Fatalf("%v: hit step limit on a tiny graph", strat)
		}
	}
}

func TestPathNeverRepeatsTags(t *testing.T) {
	g := buildTestGraph(t)
	v := NewFolkView(g)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		res, _ := Run(context.Background(), v, "music", Random, Options{MinResources: 1, Rng: rng})
		seen := map[string]bool{}
		for _, tag := range res.Path {
			if seen[tag] {
				t.Fatalf("tag %q repeated in path %v", tag, res.Path)
			}
			seen[tag] = true
		}
	}
}

func TestCandidateSetStrictlyShrinks(t *testing.T) {
	// Every selected tag is dropped from the running intersection, so
	// each path step must shrink T_i by at least one.
	g := buildTestGraph(t)
	v := NewFolkView(g)

	prev := len(displayedTags(v, "music", 100, nil))
	member := map[string]bool{}
	for _, w := range displayedTags(v, "music", 100, nil) {
		member[w.Name] = true
	}
	cur := "rock"
	for i := 0; i < 5; i++ {
		d := displayedTags(v, cur, 100, member)
		if len(d) >= prev {
			t.Fatalf("step %d: |T_i| = %d did not shrink from %d", i, len(d), prev)
		}
		if len(d) <= 1 {
			break
		}
		prev = len(d)
		member = map[string]bool{}
		for _, w := range d {
			member[w.Name] = true
		}
		cur = d[0].Name
	}
}

func TestResourcesAreConjunctive(t *testing.T) {
	// Every final resource must carry every tag on the path.
	g := buildTestGraph(t)
	v := NewFolkView(g)
	res, _ := Run(context.Background(), v, "music", First, Options{MinResources: 1})
	for _, r := range res.FinalResources {
		carried := map[string]bool{}
		for _, w := range g.Tags(r) {
			carried[w.Name] = true
		}
		for _, tag := range res.Path {
			if !carried[tag] {
				t.Fatalf("resource %s lacks path tag %s (path %v)", r, tag, res.Path)
			}
		}
	}
}

func TestStrategiesPickCorrectTag(t *testing.T) {
	g := buildTestGraph(t)
	v := NewFolkView(g)
	display := displayedTags(v, "music", 100, nil)
	if len(display) < 3 {
		t.Fatalf("test graph too small: %v", display)
	}
	if got := pick(display, First, nil); got != display[0] {
		t.Fatalf("First picked %+v, want %+v", got, display[0])
	}
	if got := pick(display, Last, nil); got != display[len(display)-1] {
		t.Fatalf("Last picked %+v, want %+v", got, display[len(display)-1])
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[pick(display, Random, rng).Name] = true
	}
	if len(seen) < 2 {
		t.Fatal("Random strategy never varied")
	}
}

func TestDisplayCapApplied(t *testing.T) {
	g := folksonomy.New()
	tags := []string{"hub"}
	for i := 0; i < 30; i++ {
		tags = append(tags, fmt.Sprintf("t%02d", i))
	}
	if err := g.InsertResource("r", "", tags...); err != nil {
		t.Fatal(err)
	}
	v := NewFolkView(g)
	if got := len(displayedTags(v, "hub", 5, nil)); got != 5 {
		t.Fatalf("cap 5 returned %d tags", got)
	}
	res, _ := Run(context.Background(), v, "hub", First, Options{DisplayCap: 5, MinResources: 1})
	if res.Steps() < 1 {
		t.Fatal("run failed under display cap")
	}
}

func TestTerminationReasons(t *testing.T) {
	// Tags converge: a pair of tags that co-occur once.
	g := folksonomy.New()
	if err := g.InsertResource("r1", "", "a", "b"); err != nil {
		t.Fatal(err)
	}
	// Many resources so |R| stays above the threshold.
	for i := 0; i < 20; i++ {
		if err := g.InsertResource(fmt.Sprintf("x%d", i), "", "a", "b"); err != nil {
			t.Fatal(err)
		}
	}
	v := NewFolkView(g)
	res, _ := Run(context.Background(), v, "a", First, Options{MinResources: 1})
	if res.Reason != TagsConverged {
		t.Fatalf("reason = %v, want TagsConverged (path %v)", res.Reason, res.Path)
	}

	// Resources converge: threshold higher than the resource count.
	res, _ = Run(context.Background(), v, "a", First, Options{MinResources: 100})
	if res.Reason != ResourcesConverged || res.Steps() != 1 {
		t.Fatalf("reason = %v steps = %d, want immediate ResourcesConverged", res.Reason, res.Steps())
	}
}

func TestStepLimit(t *testing.T) {
	// A dense graph where every pair co-occurs often: the walk cannot
	// converge within 2 steps, so the limit must fire.
	g := folksonomy.New()
	tags := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < 40; i++ {
		if err := g.InsertResource(fmt.Sprintf("r%d", i), "", tags...); err != nil {
			t.Fatal(err)
		}
	}
	v := NewFolkView(g)
	res, _ := Run(context.Background(), v, "a", First, Options{MinResources: 1, MaxSteps: 2})
	if res.Reason != StepLimit || res.Steps() != 2 {
		t.Fatalf("reason = %v steps = %d, want StepLimit at 2", res.Reason, res.Steps())
	}
}

func TestCompositeViewUsesApproximatedFG(t *testing.T) {
	g := buildTestGraph(t)
	// An "approximated" FG that only keeps the music<->rock arcs.
	fg := MapFG{
		"music": {"rock": 3},
		"rock":  {"music": 5},
	}
	v := NewCompositeView(fg, g)
	ws := v.RelatedTags("music")
	if len(ws) != 1 || ws[0].Name != "rock" {
		t.Fatalf("RelatedTags = %v", ws)
	}
	// Resources still come from the full TRG.
	if len(v.Resources("techno")) == 0 {
		t.Fatal("CompositeView lost TRG resources")
	}
	res, _ := Run(context.Background(), v, "music", First, Options{MinResources: 1})
	if res.Steps() < 1 {
		t.Fatal("navigation over composite view failed")
	}
}

func TestEngineViewNavigatesLiveEngine(t *testing.T) {
	store := dht.NewLocal()
	e, err := core.NewEngine(store, core.Config{Mode: core.Approximated, K: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := e.InsertResource(context.Background(), fmt.Sprintf("r%d", i), "", "music", "rock", "indie"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := e.InsertResource(context.Background(), fmt.Sprintf("q%d", i), "", "music", "jazz"); err != nil {
			t.Fatal(err)
		}
	}
	v := NewEngineView(context.Background(), e)
	res, _ := Run(context.Background(), v, "music", First, Options{MinResources: 2})
	if res.Steps() < 2 {
		t.Fatalf("navigation too short: %v", res.Path)
	}
	// Each step costs 2 lookups through SearchStep (memoised per tag),
	// so lookups grow linearly with path length — sanity check only.
	if store.Gets() == 0 {
		t.Fatal("engine view performed no DHT reads")
	}

	// Unknown tag: navigation degrades to an immediate stop.
	empty, _ := Run(context.Background(), v, "ghost", First, Options{MinResources: 1})
	if empty.Steps() != 1 || empty.Reason != ResourcesConverged {
		t.Fatalf("ghost tag: %+v", empty)
	}
}

func TestRunFromResource(t *testing.T) {
	g := buildTestGraph(t)
	v := NewFolkView(g)

	res, _ := RunFromResource(context.Background(), v, v, "r0", First, Options{MinResources: 1})
	if res.Steps() < 1 {
		t.Fatalf("no path from resource: %+v", res)
	}
	// The entry tag must be one of the resource's own tags.
	carried := map[string]bool{}
	for _, w := range g.Tags("r0") {
		carried[w.Name] = true
	}
	if !carried[res.Path[0]] {
		t.Fatalf("entry tag %q not on resource r0", res.Path[0])
	}
	// Unknown resource: empty walk, no panic.
	empty, _ := RunFromResource(context.Background(), v, v, "ghost", First, Options{})
	if empty.Steps() != 0 || empty.Reason != TagsConverged {
		t.Fatalf("ghost resource: %+v", empty)
	}
}

func TestRunFromResourceOverEngine(t *testing.T) {
	store := dht.NewLocal()
	e, err := core.NewEngine(store, core.Config{Mode: core.Approximated, K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := e.InsertResource(context.Background(), fmt.Sprintf("r%d", i), "", "music", "rock"); err != nil {
			t.Fatal(err)
		}
	}
	v := NewEngineView(context.Background(), e)
	res, _ := RunFromResource(context.Background(), v, v, "r3", Last, Options{MinResources: 1})
	if res.Steps() < 1 {
		t.Fatalf("engine-backed resource pivot failed: %+v", res)
	}
}

func TestStrategyAndReasonStrings(t *testing.T) {
	if First.String() != "first" || Last.String() != "last" || Random.String() != "random" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() == "" || Reason(9).String() == "" {
		t.Fatal("unknown values must still print")
	}
	for _, r := range []Reason{TagsConverged, ResourcesConverged, StepLimit} {
		if r.String() == "" {
			t.Fatal("empty reason name")
		}
	}
}

// TestRunCanceledContext: a walk whose context ends stops with the
// Canceled reason and the context error; a pre-canceled context never
// starts the walk.
func TestRunCanceledContext(t *testing.T) {
	v := NewFolkView(buildTestGraph(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, v, "music", First, Options{MinResources: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under canceled ctx: err = %v, want context.Canceled", err)
	}
	if res.Reason != Canceled {
		t.Fatalf("reason = %v, want canceled", res.Reason)
	}
	if res.Steps() != 0 {
		t.Fatalf("pre-canceled walk took %d steps", res.Steps())
	}
	if _, err := RunFromResource(ctx, v, v, "r0", First, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunFromResource under canceled ctx: err = %v", err)
	}
}

// TestFinalResourcesDeterministic: R_n comes back sorted by name, so
// two walks with the same seed return equal slices — a caller that
// resolves FinalResources[0] resolves the same resource every run.
func TestFinalResourcesDeterministic(t *testing.T) {
	v := NewFolkView(buildTestGraph(t))
	walk := func() []string {
		res, err := Run(context.Background(), v, "music", Random, Options{Rng: rand.New(rand.NewSource(3))})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalResources
	}
	first := walk()
	if len(first) < 2 {
		t.Fatalf("walk ended with %d resources; the test needs several", len(first))
	}
	if !slices.IsSorted(first) {
		t.Fatalf("FinalResources %v not sorted by name", first)
	}
	for i := 0; i < 20; i++ {
		if again := walk(); !slices.Equal(again, first) {
			t.Fatalf("run %d: FinalResources %v, first run %v", i, again, first)
		}
	}
}
