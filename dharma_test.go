package dharma_test

import (
	"context"
	"fmt"
	"testing"

	"dharma"
)

func TestSystemEndToEnd(t *testing.T) {
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 16, Mode: dharma.Approximated, K: 5, Seed: 1})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Size() != 16 {
		t.Fatalf("Size = %d", sys.Size())
	}

	publisher := sys.Peer(3)
	if err := publisher.InsertResource(context.Background(), "norwegian-wood", "magnet:nw", []string{"rock", "60s", "beatles"}); err != nil {
		t.Fatalf("InsertResource: %v", err)
	}
	if err := publisher.InsertResource(context.Background(), "yesterday", "magnet:yd", []string{"rock", "60s", "ballad"}); err != nil {
		t.Fatal(err)
	}
	if err := publisher.Tag(context.Background(), "norwegian-wood", "folk-rock"); err != nil {
		t.Fatalf("Tag: %v", err)
	}

	// A different peer sees the published graph.
	reader := sys.Peer(11)
	related, resources, err := reader.SearchStep(context.Background(), "rock")
	if err != nil {
		t.Fatalf("SearchStep: %v", err)
	}
	if len(related) == 0 || len(resources) != 2 {
		t.Fatalf("related=%v resources=%v", related, resources)
	}
	uri, err := reader.ResolveURI(context.Background(), "yesterday")
	if err != nil || uri != "magnet:yd" {
		t.Fatalf("ResolveURI = %q, %v", uri, err)
	}

	res, err := reader.Navigate(context.Background(), "rock", dharma.First, dharma.NavOptions{MinResources: 1})
	if err != nil {
		t.Fatalf("navigate: %v", err)
	}
	if res.Steps() < 1 {
		t.Fatal("navigation produced no path")
	}
	if reader.Lookups() == 0 {
		t.Fatal("reader performed no lookups")
	}
}

func TestSystemWithIdentity(t *testing.T) {
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 12, WithIdentity: true, Seed: 2})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	p := sys.Peer(0)
	if err := p.InsertResource(context.Background(), "song", "uri:song", []string{"jazz"}); err != nil {
		t.Fatalf("InsertResource: %v", err)
	}
	uri, err := sys.Peer(7).ResolveURI(context.Background(), "song")
	if err != nil || uri != "uri:song" {
		t.Fatalf("ResolveURI over Likir overlay = %q, %v", uri, err)
	}

	// A file-sharing index, the paper's motivating deployment: six
	// signed URIs published from different peers still resolve once a
	// third of the network is down, and a search step on the survivors
	// still verifies its entries and finds related tags.
	ctx := context.Background()
	share, err := dharma.NewSystem(dharma.Config{Nodes: 24, Mode: dharma.Approximated, K: 4, WithIdentity: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer share.Shutdown()
	files := []struct {
		name, uri string
		tags      []string
	}{
		{"ubuntu-24.04.iso", "magnet:?xt=ubuntu", []string{"linux", "iso", "os", "lts"}},
		{"debian-12.iso", "magnet:?xt=debian", []string{"linux", "iso", "os", "stable"}},
		{"go1.22.src.tar.gz", "magnet:?xt=gosrc", []string{"golang", "source", "compiler"}},
		{"sicp.pdf", "magnet:?xt=sicp", []string{"book", "lisp", "cs"}},
		{"k&r.pdf", "magnet:?xt=knr", []string{"book", "c", "cs"}},
		{"tapl.pdf", "magnet:?xt=tapl", []string{"book", "types", "cs"}},
	}
	for i, f := range files {
		if err := share.Peer(i).InsertResource(ctx, f.name, f.uri, f.tags); err != nil {
			t.Fatalf("peer %d InsertResource(%s): %v", i, f.name, err)
		}
	}
	for i := 0; i < 8; i++ {
		share.SetDown(i, true)
	}
	seeker := share.Peer(19)
	for _, f := range files {
		if uri, err := seeker.ResolveURI(ctx, f.name); err != nil || uri != f.uri {
			t.Errorf("with nodes 0-7 down, ResolveURI(%s) = %q, %v; want %q", f.name, uri, err, f.uri)
		}
	}
	related, _, err := seeker.SearchStep(ctx, "cs")
	if err != nil || len(related) == 0 {
		t.Fatalf("with nodes 0-7 down, SearchStep(cs) = %v, %v; want related tags", related, err)
	}
}

func TestSystemNaiveMode(t *testing.T) {
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 8, Mode: dharma.Naive, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Peer(1)
	if err := p.InsertResource(context.Background(), "r", "", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	before := p.Lookups()
	if err := p.Tag(context.Background(), "r", "c"); err != nil {
		t.Fatal(err)
	}
	if got := p.Lookups() - before; got != 4+2 {
		t.Fatalf("naive tag cost %d block ops, want 6", got)
	}
}

func TestNewLocalEngine(t *testing.T) {
	eng, store, err := dharma.NewLocalEngine(dharma.Config{Mode: dharma.Approximated, K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := eng.InsertResource(context.Background(), fmt.Sprintf("r%d", i), "", "x", "y"); err != nil {
			t.Fatal(err)
		}
	}
	related, _, err := eng.SearchStep(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(related) != 1 || related[0].Name != "y" {
		t.Fatalf("related = %v", related)
	}
	if store.Lookups() == 0 {
		t.Fatal("no lookups counted")
	}
}

func TestNavigateFromResource(t *testing.T) {
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 12, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Peer(2)
	for i := 0; i < 6; i++ {
		if err := p.InsertResource(context.Background(), fmt.Sprintf("song%d", i), "", []string{"rock", "live"}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.Peer(9).NavigateFromResource(context.Background(), "song3", dharma.First, dharma.NavOptions{MinResources: 1})
	if err != nil {
		t.Fatalf("navigate from resource: %v", err)
	}
	if res.Steps() < 1 {
		t.Fatalf("pivot navigation empty: %+v", res)
	}
	if res.Path[0] != "live" && res.Path[0] != "rock" {
		t.Fatalf("entry tag %q not on song3", res.Path[0])
	}
	// Unknown resource degrades gracefully.
	empty, _ := sys.Peer(9).NavigateFromResource(context.Background(), "ghost", dharma.First, dharma.NavOptions{})
	if empty.Steps() != 0 {
		t.Fatalf("ghost pivot produced a path: %+v", empty)
	}
}

func TestSystemFaultInjection(t *testing.T) {
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Peer(0).InsertResource(context.Background(), "r", "uri:r", []string{"tag"}); err != nil {
		t.Fatal(err)
	}
	// Take down a third of the overlay; the blocks must survive thanks
	// to write-time replication.
	for i := 10; i < 18; i++ {
		sys.SetDown(i, true)
	}
	if _, err := sys.Peer(2).ResolveURI(context.Background(), "r"); err != nil {
		t.Fatalf("ResolveURI after failures: %v", err)
	}
}
