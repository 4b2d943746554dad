package kademlia

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

func TestMergeMaxIdempotent(t *testing.T) {
	s := NewStore()
	key := kadid.HashString("k")
	entries := []wire.Entry{{Field: "a", Count: 5}, {Field: "b", Count: 2}}
	s.MergeMax(context.Background(), key, entries)
	s.MergeMax(context.Background(), key, entries) // replaying a replica must not double-count
	es, _ := s.Get(key, 0)
	if es[0].Count != 5 || es[1].Count != 2 {
		t.Fatalf("entries = %+v, want a/5 b/2", es)
	}
}

func TestMergeMaxTakesLargerCount(t *testing.T) {
	s := NewStore()
	key := kadid.HashString("k")
	s.Append(context.Background(), key, []wire.Entry{{Field: "a", Count: 7}})
	s.MergeMax(context.Background(), key, []wire.Entry{{Field: "a", Count: 3}}) // stale replica
	es, _ := s.Get(key, 0)
	if es[0].Count != 7 {
		t.Fatalf("stale merge shrank count: %d", es[0].Count)
	}
	s.MergeMax(context.Background(), key, []wire.Entry{{Field: "a", Count: 11}}) // fresher replica
	es, _ = s.Get(key, 0)
	if es[0].Count != 11 {
		t.Fatalf("fresh merge ignored: %d", es[0].Count)
	}
}

func TestMergeMaxAdoptsDataOnlyWhenMissing(t *testing.T) {
	s := NewStore()
	key := kadid.HashString("k")
	s.MergeMax(context.Background(), key, []wire.Entry{{Field: "r", Count: 1, Data: []byte("uri1")}})
	s.MergeMax(context.Background(), key, []wire.Entry{{Field: "r", Count: 1, Data: []byte("uri2")}})
	es, _ := s.Get(key, 0)
	if string(es[0].Data) != "uri1" {
		t.Fatalf("replication overwrote existing data: %q", es[0].Data)
	}
}

func TestRepublishMovesBlocksToJoiners(t *testing.T) {
	cl := newTestCluster(t, 20, 51)
	key := kadid.HashString("persistent|3")
	if _, err := cl.Nodes[2].Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 9}}); err != nil {
		t.Fatal(err)
	}

	// Grow the overlay: some joiners will land closer to the key than
	// the original replicas.
	for i := 0; i < 20; i++ {
		if _, err := cl.AddNode(context.Background(), Config{K: 8, Alpha: 3}, int64(1000+i), i%20); err != nil {
			t.Fatalf("AddNode %d: %v", i, err)
		}
	}

	// Republish from every original holder.
	for _, n := range cl.Nodes[:20] {
		if n.LocalStore().Has(key) {
			n.AntiEntropyOnce(context.Background(), 1)
		}
	}

	// Now the k closest nodes in the grown overlay must hold the block.
	holders := 0
	for _, c := range cl.ClosestGroundTruth(key, 8) {
		for _, n := range cl.Nodes {
			if n.Self().ID == c.ID && n.LocalStore().Has(key) {
				holders++
			}
		}
	}
	if holders < 6 { // allow slack for ties at the k-boundary
		t.Fatalf("only %d of the 8 closest nodes hold the block after republish", holders)
	}

	// Counts must be intact (max-merge, not addition).
	es, err := cl.Nodes[25].FindValue(context.Background(), key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if es[0].Count != 9 {
		t.Fatalf("count after republish = %d, want 9", es[0].Count)
	}
}

func TestRepublishRestoresReplicationAfterCrashes(t *testing.T) {
	cl := newTestCluster(t, 32, 52)
	key := kadid.HashString("durable|2")
	if _, err := cl.Nodes[0].Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 4}}); err != nil {
		t.Fatal(err)
	}

	// Crash most of the replica set, keeping one holder alive.
	holders := cl.ClosestGroundTruth(key, 8)
	var survivor *Node
	for _, n := range cl.Nodes {
		if n.Self().ID == holders[len(holders)-1].ID {
			survivor = n
			break
		}
	}
	if survivor == nil || !survivor.LocalStore().Has(key) {
		t.Skip("survivor does not hold the block under this seed")
	}
	for _, h := range holders[:len(holders)-1] {
		cl.Net.SetDown(simnet.Addr(h.Addr), true)
	}

	// The survivor repairs the replica set among live nodes.
	survivor.AntiEntropyOnce(context.Background(), 1)

	liveHolders := 0
	for _, n := range cl.Nodes {
		if n == survivor {
			continue
		}
		down := false
		for _, h := range holders[:len(holders)-1] {
			if n.Self().ID == h.ID {
				down = true
			}
		}
		if !down && n.LocalStore().Has(key) {
			liveHolders++
		}
	}
	if liveHolders < 4 {
		t.Fatalf("republish created only %d live replicas", liveHolders)
	}

	// Any live reader finds the value again.
	var reader *Node
	for _, n := range cl.Nodes {
		isDead := false
		for _, h := range holders[:len(holders)-1] {
			if n.Self().ID == h.ID {
				isDead = true
			}
		}
		if !isDead && !n.LocalStore().Has(key) {
			reader = n
			break
		}
	}
	if reader == nil {
		t.Skip("no non-holder reader available")
	}
	if _, err := reader.FindValue(context.Background(), key, 0); err != nil {
		t.Fatalf("FindValue after repair: %v", err)
	}
}

func TestFilteredLookupDoesNotCache(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		N:    24,
		Node: Config{K: 8, Alpha: 3},
		Seed: 72,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := kadid.HashString("filtered|3")
	var entries []wire.Entry
	for i := 0; i < 20; i++ {
		entries = append(entries, wire.Entry{Field: fmt.Sprintf("t%02d", i), Count: uint64(i + 1)})
	}
	if _, err := cl.Nodes[0].Store(context.Background(), key, entries); err != nil {
		t.Fatal(err)
	}
	holders := func() int {
		h := 0
		for _, n := range cl.Nodes {
			if n.LocalStore().Has(key) {
				h++
			}
		}
		return h
	}
	before := holders()
	for i := 5; i < 20; i++ {
		if _, err := cl.Nodes[i].FindValue(context.Background(), key, 3); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := holders(); got != before {
		t.Fatalf("filtered lookups created cache copies: %d -> %d", before, got)
	}
}

func TestReplicateRPCUsesMaxMerge(t *testing.T) {
	cl := newTestCluster(t, 8, 53)
	key := kadid.HashString("x|3")
	target := cl.Nodes[3]
	target.LocalStore().Append(context.Background(), key, []wire.Entry{{Field: "f", Count: 10}})

	// A REPLICATE with a smaller count must not change anything; a
	// STORE with the same payload would add.
	var resp wire.Message
	err := cl.Nodes[1].call(context.Background(), target.Self(), &wire.Message{
		Kind:    wire.KindReplicate,
		Target:  key,
		Entries: []wire.Entry{{Field: "f", Count: 4}},
	}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindStoreAck {
		t.Fatalf("resp = %v", resp.Kind)
	}
	es, _ := target.LocalStore().Get(key, 0)
	if es[0].Count != 10 {
		t.Fatalf("replicate changed count to %d", es[0].Count)
	}
}
