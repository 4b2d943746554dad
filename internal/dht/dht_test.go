package dht

import (
	"context"
	"errors"
	"testing"

	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

func TestLocalAppendGet(t *testing.T) {
	l := NewLocal()
	key := kadid.HashString("rock|3")
	if err := l.Append(context.Background(), key, []wire.Entry{{Field: "pop", Count: 2}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Append(context.Background(), key, []wire.Entry{{Field: "pop", Count: 1}, {Field: "indie", Count: 1}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	es, err := l.Get(context.Background(), key, 0)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if len(es) != 2 || es[0].Field != "pop" || es[0].Count != 3 {
		t.Fatalf("entries = %+v", es)
	}
}

func TestLocalGetNotFound(t *testing.T) {
	l := NewLocal()
	if _, err := l.Get(context.Background(), kadid.HashString("missing"), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestLocalCounters(t *testing.T) {
	l := NewLocal()
	key := kadid.HashString("k")
	l.Append(context.Background(), key, []wire.Entry{{Field: "a", Count: 1}}) //nolint:errcheck
	l.Get(context.Background(), key, 0)                                       //nolint:errcheck
	l.Get(context.Background(), key, 0)                                       //nolint:errcheck
	l.Get(context.Background(), kadid.HashString("missing"), 0)               //nolint:errcheck

	if l.Appends() != 1 {
		t.Fatalf("Appends = %d, want 1", l.Appends())
	}
	if l.Gets() != 3 {
		t.Fatalf("Gets = %d, want 3 (misses also cost a lookup)", l.Gets())
	}
	if l.Lookups() != 4 {
		t.Fatalf("Lookups = %d, want 4", l.Lookups())
	}
}

func TestLocalTopN(t *testing.T) {
	l := NewLocal()
	key := kadid.HashString("k")
	l.Append(context.Background(), key, []wire.Entry{ //nolint:errcheck
		{Field: "a", Count: 3}, {Field: "b", Count: 2}, {Field: "c", Count: 1},
	})
	es, err := l.Get(context.Background(), key, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 || es[0].Field != "a" || es[1].Field != "b" {
		t.Fatalf("topN filter broken: %+v", es)
	}
}

func newOverlayPair(t *testing.T) (*Overlay, *Overlay) {
	t.Helper()
	cl, err := kademlia.NewCluster(kademlia.ClusterConfig{
		N:    24,
		Node: kademlia.Config{K: 8, Alpha: 3},
		Seed: 21,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return NewOverlay(cl.Nodes[3], nil), NewOverlay(cl.Nodes[17], nil)
}

func TestOverlayAppendGet(t *testing.T) {
	w, r := newOverlayPair(t)
	key := kadid.HashString("jazz|3")
	if err := w.Append(context.Background(), key, []wire.Entry{{Field: "bebop", Count: 1}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append(context.Background(), key, []wire.Entry{{Field: "bebop", Count: 1}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	es, err := r.Get(context.Background(), key, 0)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if len(es) != 1 || es[0].Count != 2 {
		t.Fatalf("entries = %+v, want bebop/2", es)
	}
}

func TestOverlayGetNotFound(t *testing.T) {
	_, r := newOverlayPair(t)
	if _, err := r.Get(context.Background(), kadid.HashString("missing"), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestOverlayCountsOps(t *testing.T) {
	w, r := newOverlayPair(t)
	key := kadid.HashString("k")
	w.Append(context.Background(), key, []wire.Entry{{Field: "a", Count: 1}}) //nolint:errcheck
	r.Get(context.Background(), key, 0)                                       //nolint:errcheck
	if w.Appends() != 1 || w.Lookups() != 1 {
		t.Fatalf("writer counters: appends=%d lookups=%d", w.Appends(), w.Lookups())
	}
	if r.Gets() != 1 || r.Lookups() != 1 {
		t.Fatalf("reader counters: gets=%d lookups=%d", r.Gets(), r.Lookups())
	}
	// The overlay node performed exactly one iterative lookup per op.
	if w.Node().Counters().Lookups.Load() == 0 {
		t.Fatal("overlay node reports no iterative lookups")
	}
}

func TestLocalAndOverlaySemanticsAgree(t *testing.T) {
	// The same operation sequence must yield the same block contents on
	// both backings — this is what lets the simulations use Local.
	w, r := newOverlayPair(t)
	l := NewLocal()
	key := kadid.HashString("agree|3")

	ops := [][]wire.Entry{
		{{Field: "x", Count: 1}},
		{{Field: "y", Count: 2}, {Field: "x", Count: 1}},
		{{Field: "z", Count: 1}},
		{{Field: "y", Count: 3}},
	}
	for _, es := range ops {
		if err := w.Append(context.Background(), key, es); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(context.Background(), key, es); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Get(context.Background(), key, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := l.Get(context.Background(), key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Field != want[i].Field || got[i].Count != want[i].Count {
			t.Fatalf("entry %d: overlay %+v, local %+v", i, got[i], want[i])
		}
	}
}

func TestLocalAppendBatchAccounting(t *testing.T) {
	// A batch of n items is n block operations in Table-I units — the
	// counter must advance exactly n, including items whose entry list
	// is empty (the lookup happens even when nothing is stored).
	l := NewLocal()
	k1, k2, k3 := kadid.HashString("k1"), kadid.HashString("k2"), kadid.HashString("k3")
	if err := l.AppendBatch(context.Background(), []BatchItem{
		{Key: k1, Entries: []wire.Entry{{Field: "a", Count: 1}}},
		{Key: k2, Entries: []wire.Entry{{Field: "b", Count: 2}}},
		{Key: k3}, // empty: charged, not materialized
	}); err != nil {
		t.Fatal(err)
	}
	if l.Appends() != 3 {
		t.Fatalf("Appends = %d, want 3", l.Appends())
	}
	es, err := l.Get(context.Background(), k2, 0)
	if err != nil || len(es) != 1 || es[0].Count != 2 {
		t.Fatalf("batch write missing: %+v, %v", es, err)
	}
	if l.Raw().Has(k3) {
		t.Fatal("empty batch item materialized a block")
	}
}
