package dharma

import (
	"context"
	"testing"
)

// TestSystemDurableRestart is the facade-level durability contract: a
// System built over a DataDir, fed inserts and tags, and cleanly shut
// down serves every acknowledged operation when rebuilt over the same
// directory — without a single re-insert.
func TestSystemDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Nodes: 12, K: 3, Seed: 7, DataDir: dir, NoFsync: true}

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Peer(0)
	if err := p.InsertResource(context.Background(), "norwegian-wood", "magnet:?xt=nw", []string{"rock", "60s"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Tag(context.Background(), "norwegian-wood", "beatles"); err != nil {
		t.Fatal(err)
	}
	sys.Shutdown()

	// Same Seed → same node identities → each node reopens its own
	// directory, exactly like a fleet of processes restarting in place.
	sys2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Shutdown()
	p2 := sys2.Peer(1)
	uri, err := p2.ResolveURI(context.Background(), "norwegian-wood")
	if err != nil || uri != "magnet:?xt=nw" {
		t.Fatalf("resolve after restart: %q, %v", uri, err)
	}
	tags, err := p2.TagsOf(context.Background(), "norwegian-wood")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, w := range tags {
		found[w.Name] = true
	}
	for _, want := range []string{"rock", "60s", "beatles"} {
		if !found[want] {
			t.Fatalf("tag %q lost across restart (got %v)", want, tags)
		}
	}
	res, err := p2.Navigate(context.Background(), "rock", First, NavOptions{})
	if err != nil {
		t.Fatalf("navigate after recovery: %v", err)
	}
	if len(res.FinalResources) == 0 {
		t.Fatalf("navigation after restart found nothing: %+v", res)
	}
}
