package dharma

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestSystemFailedBootReleasesNodes: a durable NewSystem whose third
// node cannot open its store must shut down the two nodes it already
// built. It used to return the error with their write-ahead-log
// flushers, open segments and simulated endpoints still alive.
func TestSystemFailedBootReleasesNodes(t *testing.T) {
	dir := t.TempDir()
	// A regular file where node-2's store directory belongs.
	if err := os.WriteFile(filepath.Join(dir, "node-2"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := NewSystem(Config{Nodes: 4, Seed: 7, DataDir: dir, NoFsync: true}); err == nil {
			t.Fatal("NewSystem succeeded with node-2's store directory blocked")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 10 failed boots, %d before: the built nodes leaked",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

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
