package dharma_test

import (
	"context"
	"fmt"
	"testing"

	"dharma"
	"dharma/internal/dataset"
	"dharma/internal/folksonomy"
	"dharma/internal/search"
)

// TestPipelineOverlayMatchesModel is the end-to-end integration test:
// a synthetic workload published through a live overlay by many peers
// must leave the DHT holding exactly the graph the in-memory model
// predicts (naive mode), and navigation over the overlay must follow
// the same path as navigation over the model.
func TestPipelineOverlayMatchesModel(t *testing.T) {
	sys, err := dharma.NewSystem(dharma.Config{
		Nodes: 20, Mode: dharma.Naive, Seed: 77, TopN: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	d := dataset.Generate(dataset.Tiny(9))
	schedule := d.Shuffled(10)[:600]

	model := folksonomy.New()
	inserted := map[string]bool{}
	for i, a := range schedule {
		peer := sys.Peer(i % sys.Size())
		if !inserted[a.Resource] {
			if err := peer.InsertResource(context.Background(), a.Resource, "uri:"+a.Resource, nil); err != nil {
				t.Fatal(err)
			}
			if err := model.InsertResource(a.Resource, "uri:"+a.Resource); err != nil {
				t.Fatal(err)
			}
			inserted[a.Resource] = true
		}
		if err := peer.Tag(context.Background(), a.Resource, a.Tag); err != nil {
			t.Fatal(err)
		}
		if err := model.Tag(a.Resource, a.Tag); err != nil {
			t.Fatal(err)
		}
	}

	// Every tag's FG adjacency on the DHT equals the model's.
	reader := sys.Peer(7)
	for _, tag := range model.TagNames() {
		want := map[string]int{}
		for _, w := range model.Neighbors(tag) {
			want[w.Name] = w.Weight
		}
		got, err := reader.Neighbors(context.Background(), tag)
		if err != nil {
			t.Fatalf("Neighbors(%s): %v", tag, err)
		}
		live := 0
		for _, w := range got {
			if w.Weight == 0 {
				continue
			}
			live++
			if want[w.Name] != w.Weight {
				t.Fatalf("sim(%s,%s) = %d on overlay, model %d", tag, w.Name, w.Weight, want[w.Name])
			}
		}
		if live != len(want) {
			t.Fatalf("tag %s: %d arcs on overlay, model %d", tag, live, len(want))
		}
	}

	// Navigation agreement: same path over the overlay and the model.
	start := dataset.PopularTags(model, 1)[0]
	overlayNav, navErr := reader.Navigate(context.Background(), start, dharma.First, dharma.NavOptions{})
	if navErr != nil {
		t.Fatalf("overlay navigate: %v", navErr)
	}
	modelNav, _ := search.Run(context.Background(), search.NewFolkView(model), start, search.First, search.Options{})
	if fmt.Sprint(overlayNav.Path) != fmt.Sprint(modelNav.Path) {
		t.Fatalf("paths diverge:\noverlay %v\nmodel   %v", overlayNav.Path, modelNav.Path)
	}
	if overlayNav.Reason != modelNav.Reason {
		t.Fatalf("termination reasons diverge: %v vs %v", overlayNav.Reason, modelNav.Reason)
	}
}

// TestPipelineSurvivesChurnWithMaintenance publishes a workload, churns
// a third of the overlay away, republishes, and verifies search results
// keep working through the facade.
func TestPipelineSurvivesChurnWithMaintenance(t *testing.T) {
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 30, K: 4, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Generate(dataset.Tiny(11))
	schedule := d.Shuffled(12)[:400]
	pop := map[string]int{}
	inserted := map[string]bool{}
	for i, a := range schedule {
		peer := sys.Peer(i % sys.Size())
		if !inserted[a.Resource] {
			if err := peer.InsertResource(context.Background(), a.Resource, "uri:"+a.Resource, nil); err != nil {
				t.Fatal(err)
			}
			inserted[a.Resource] = true
		}
		if err := peer.Tag(context.Background(), a.Resource, a.Tag); err != nil {
			t.Fatal(err)
		}
		pop[a.Tag]++
	}

	// Kill ten nodes, then let the survivors repair replication.
	for i := 10; i < 20; i++ {
		sys.SetDown(i, true)
	}
	for i, p := range sys.Peers() {
		if i >= 10 && i < 20 {
			continue
		}
		p.Node.AntiEntropyOnce(context.Background(), 1)
	}

	// The most popular tags must all still answer search steps.
	reader := sys.Peer(0)
	checked := 0
	for tag, n := range pop {
		if n < 5 {
			continue
		}
		if _, _, err := reader.SearchStep(context.Background(), tag); err != nil {
			t.Fatalf("SearchStep(%s) after churn: %v", tag, err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no popular tags to check")
	}
}

// TestReadNeverHidesAnotherPeersWrite pins the facade's freshness
// contract: every read goes to the overlay, so a block one peer has
// already read shows another peer's acknowledged write on that peer's
// very next read.
func TestReadNeverHidesAnotherPeersWrite(t *testing.T) {
	ctx := context.Background()
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 12, K: 3, Mode: dharma.Approximated, Seed: 80})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	a, b := sys.Peer(0), sys.Peer(5)
	if err := a.InsertResource(ctx, "r", "uri:r", []string{"rock"}); err != nil {
		t.Fatal(err)
	}

	has := func(ws []dharma.Weighted, name string) bool {
		for _, w := range ws {
			if w.Name == name {
				return true
			}
		}
		return false
	}
	// B reads r̄ and rock's step before the write.
	tags, err := b.TagsOf(ctx, "r")
	if err != nil || !has(tags, "rock") || has(tags, "folk") {
		t.Fatalf("TagsOf(r) before the write: %v, %v", tags, err)
	}
	related, _, err := b.SearchStep(ctx, "rock")
	if err != nil || has(related, "folk") {
		t.Fatalf("SearchStep(rock) before the write: %v, %v", related, err)
	}

	if err := a.Tag(ctx, "r", "folk"); err != nil {
		t.Fatal(err)
	}

	tags, err = b.TagsOf(ctx, "r")
	if err != nil || !has(tags, "folk") {
		t.Fatalf("TagsOf(r) after A tagged r folk: %v, %v", tags, err)
	}
	related, _, err = b.SearchStep(ctx, "rock")
	if err != nil || !has(related, "folk") {
		t.Fatalf("SearchStep(rock) after A tagged r folk: %v, %v", related, err)
	}
}

// TestConcurrentPeersPublishing exercises the race-freedom claim of
// Approximation B end to end: many peers tag the same resource
// concurrently and every increment must be accounted.
func TestConcurrentPeersPublishing(t *testing.T) {
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 12, K: 3, Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Peer(0).InsertResource(context.Background(), "hot", "uri:hot", []string{"seed-tag"}); err != nil {
		t.Fatal(err)
	}

	const taggers = 8
	errc := make(chan error, taggers)
	for g := 0; g < taggers; g++ {
		go func(g int) {
			peer := sys.Peer(g)
			for i := 0; i < 5; i++ {
				if err := peer.Tag(context.Background(), "hot", fmt.Sprintf("tag-%d", g)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < taggers; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	tags, err := sys.Peer(11).TagsOf(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, w := range tags {
		got[w.Name] = w.Weight
	}
	for g := 0; g < taggers; g++ {
		name := fmt.Sprintf("tag-%d", g)
		if got[name] != 5 {
			t.Fatalf("u(%s,hot) = %d, want 5 (lost increments)", name, got[name])
		}
	}
}
