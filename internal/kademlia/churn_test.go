package kademlia

import (
	"context"
	"fmt"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// holderOf returns the cluster members currently storing key.
func holdersOf(cl *Cluster, key kadid.ID) []*Node {
	var out []*Node
	for _, n := range cl.Snapshot() {
		if n.LocalStore().Has(key) {
			out = append(out, n)
		}
	}
	return out
}

func indexOf(cl *Cluster, n *Node) int {
	for i, m := range cl.Snapshot() {
		if m == n {
			return i
		}
	}
	return -1
}

func TestRemoveNodeHandsOffBlocks(t *testing.T) {
	cl := newTestCluster(t, 24, 61)
	key := kadid.HashString("handoff|1")
	if _, err := cl.Nodes[0].Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 7}}); err != nil {
		t.Fatal(err)
	}

	// Gracefully remove every original holder, one at a time. Each
	// departure must hand the block to the nodes now closest to it, so
	// the block never becomes unreadable.
	for round := 0; round < 4; round++ {
		holders := holdersOf(cl, key)
		if len(holders) == 0 {
			t.Fatalf("round %d: block has no holders left", round)
		}
		idx := indexOf(cl, holders[0])
		if idx == 0 {
			if len(holders) == 1 {
				break // only the bootstrap holds it; leave it there
			}
			idx = indexOf(cl, holders[1])
		}
		if _, err := cl.RemoveNode(context.Background(), idx); err != nil {
			t.Fatalf("round %d: RemoveNode(%d): %v", round, idx, err)
		}
		es, err := cl.NodeAt(0).FindValue(context.Background(), key, 0)
		if err != nil {
			t.Fatalf("round %d: value unreadable after graceful leave: %v", round, err)
		}
		if es[0].Count != 7 {
			t.Fatalf("round %d: count corrupted by handoff: %d", round, es[0].Count)
		}
	}
}

func TestRemoveNodeDetachesEndpoint(t *testing.T) {
	cl := newTestCluster(t, 8, 62)
	victim := cl.NodeAt(5)
	if _, err := cl.RemoveNode(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if cl.Len() != 7 {
		t.Fatalf("Len = %d after removal, want 7", cl.Len())
	}
	if cl.NodeAt(0).Ping(context.Background(), victim.Self()) {
		t.Fatal("removed node still answers pings")
	}
	for _, n := range cl.Snapshot() {
		if n == victim {
			t.Fatal("removed node still in membership")
		}
	}
}

func TestCrashIsAbruptAndReviveRejoins(t *testing.T) {
	cl := newTestCluster(t, 16, 63)
	key := kadid.HashString("crashy|2")
	if _, err := cl.Nodes[1].Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 3}}); err != nil {
		t.Fatal(err)
	}

	holders := holdersOf(cl, key)
	if len(holders) == 0 {
		t.Fatal("no holders after store")
	}
	victim := holders[0]
	if victim == cl.NodeAt(0) && len(holders) > 1 {
		victim = holders[1]
	}
	before := victim.LocalStore().Len()

	idx := indexOf(cl, victim)
	crashed, err := cl.Crash(idx)
	if err != nil {
		t.Fatal(err)
	}
	if crashed != victim {
		t.Fatal("Crash returned a different node")
	}
	if cl.NodeAt(0).Ping(context.Background(), victim.Self()) {
		t.Fatal("crashed node still answers")
	}
	// A crash is abrupt: the store must be untouched (no handoff ran).
	if got := victim.LocalStore().Len(); got != before {
		t.Fatalf("crash mutated the store: %d -> %d blocks", before, got)
	}
	// The routing table survives the crash like the store does: a
	// maintenance round on the dead node must be a no-op, not a sweep
	// that mistakes its own send failures for every peer being dead.
	tableBefore := victim.Table().Len()
	victim.MaintainOnce(context.Background())
	if got := victim.Table().Len(); got != tableBefore {
		t.Fatalf("crashed node's maintenance mutated its table: %d -> %d", tableBefore, got)
	}

	if _, err := cl.Revive(context.Background(), victim, 0); err != nil {
		t.Fatalf("Revive: %v", err)
	}
	if !cl.NodeAt(0).Ping(context.Background(), victim.Self()) {
		t.Fatal("revived node does not answer")
	}
	if cl.Len() != 16 {
		t.Fatalf("Len = %d after revive, want 16", cl.Len())
	}
	// Its pre-crash replica must still be servable.
	es, err := cl.NodeAt(0).FindValue(context.Background(), key, 0)
	if err != nil || es[0].Count != 3 {
		t.Fatalf("value after revive: %v, %v", es, err)
	}
}

func TestMaintainerRepairsAfterCrashes(t *testing.T) {
	cl := newTestCluster(t, 32, 64)
	key := kadid.HashString("maintained|1")
	if _, err := cl.Nodes[0].Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 5}}); err != nil {
		t.Fatal(err)
	}

	// Crash every holder but one (k-1 of the replica set).
	holders := holdersOf(cl, key)
	if len(holders) < 2 {
		t.Skipf("only %d holders under this seed", len(holders))
	}
	survivor := holders[len(holders)-1]
	if survivor == cl.NodeAt(0) {
		survivor = holders[0]
	}
	for _, h := range holders {
		if h == survivor {
			continue
		}
		if idx := indexOf(cl, h); idx > 0 {
			if _, err := cl.Crash(idx); err != nil {
				t.Fatal(err)
			}
		} else if idx == 0 {
			cl.Net.SetDown(simnet.Addr(h.Self().Addr), true)
		}
	}

	// One maintenance round on the survivor: evict the dead from its
	// table, refresh, republish to the live k-closest.
	if r := survivor.MaintainOnce(context.Background()); r.Synced == 0 {
		t.Fatalf("report after one round: %+v", r)
	}

	live := holdersOf(cl, key) // crashed nodes are out of the membership
	liveCount := 0
	for _, h := range live {
		if h != survivor {
			liveCount++
		}
	}
	if liveCount < 4 {
		t.Fatalf("republish created only %d live replicas beyond the survivor", liveCount)
	}
	es, err := cl.NodeAt(1).FindValue(context.Background(), key, 0)
	if err != nil || es[0].Count != 5 {
		t.Fatalf("value after maintenance: %v, %v", es, err)
	}
}

func TestEvictDeadDropsCrashedContacts(t *testing.T) {
	cl := newTestCluster(t, 12, 66)
	n := cl.NodeAt(0)
	before := n.Table().Len()
	if before == 0 {
		t.Fatal("bootstrap node knows nobody")
	}

	// Crash a contact the bootstrap definitely knows.
	contacts := n.Table().Contacts()
	victimID := contacts[0].ID
	for i, m := range cl.Snapshot() {
		if m.Self().ID == victimID {
			if _, err := cl.Crash(i); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	evicted := n.EvictDead(context.Background())
	if evicted == 0 {
		t.Fatal("EvictDead removed nothing although a contact crashed")
	}
	if n.Table().Contains(victimID) {
		t.Fatal("dead contact survived the sweep")
	}
}

// TestHandoffSendsNoDataToAgreeingReplicas: a leaver whose k closest
// already hold its block proves their agreement by digest and ships no
// block data — the handoff costs summary probes, not a whole-block
// push per replica.
func TestHandoffSendsNoDataToAgreeingReplicas(t *testing.T) {
	cl := newTestCluster(t, 9, 7008) // K = 8: every node but the leaver is a replica
	ctx := context.Background()
	key := kadid.HashString("handed|3")
	var block []wire.Entry
	for i := 0; i < 200; i++ {
		block = append(block, wire.Entry{Field: fmt.Sprintf("tag%03d", i), Count: uint64(1 + i%7)})
	}
	for _, n := range cl.Nodes {
		if err := n.LocalStore().Append(ctx, key, block); err != nil {
			t.Fatal(err)
		}
	}

	leaver := cl.Nodes[8]
	c := leaver.Counters()
	matchesBefore, deltaBefore, fullBefore, sentBefore :=
		c.DigestMatches.Load(), c.DeltaEntries.Load(), c.FullBlocks.Load(), c.MaintBytesSent.Load()
	blocks, acks, err := leaver.Handoff(ctx)
	if err != nil || blocks != 1 || acks != 8 {
		t.Fatalf("handoff: blocks=%d acks=%d err=%v, want 1 block / 8 acks", blocks, acks, err)
	}
	if c.DigestMatches.Load() == matchesBefore {
		t.Fatal("agreeing replicas were not proven by digest")
	}
	if d, f := c.DeltaEntries.Load()-deltaBefore, c.FullBlocks.Load()-fullBefore; d != 0 || f != 0 {
		t.Fatalf("handoff moved data to agreeing replicas: %d delta entries, %d full blocks", d, f)
	}
	blockSize := len(wire.Encode(&wire.Message{Kind: wire.KindReplicate, Target: key, Entries: block}))
	if sent := c.MaintBytesSent.Load() - sentBefore; sent >= int64(blockSize) {
		t.Fatalf("handoff sent %d bytes, want fewer than one %d-byte block", sent, blockSize)
	}
}

func TestCrashedKMinusOneHoldersStayReadableAfterRepair(t *testing.T) {
	// The acceptance scenario in miniature: with replication k, crash
	// k-1 holders of a block; after one maintenance round on the
	// survivor the block must be fully readable with intact counts.
	cl, err := NewCluster(ClusterConfig{
		N:    40,
		Node: Config{K: 5, Alpha: 3},
		Seed: 69,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		key := kadid.HashString(fmt.Sprintf("acceptance|%d", round))
		if _, err := cl.NodeAt(0).Store(context.Background(), key, []wire.Entry{{Field: "f", Count: uint64(10 + round)}}); err != nil {
			t.Fatal(err)
		}
		holders := holdersOf(cl, key)
		if len(holders) < 2 {
			continue
		}
		survivor := holders[0]
		if survivor == cl.NodeAt(0) && len(holders) > 1 {
			survivor = holders[1]
		}
		var revive []*Node
		for _, h := range holders {
			if h == survivor || h == cl.NodeAt(0) {
				continue
			}
			n, err := cl.Crash(indexOf(cl, h))
			if err != nil {
				t.Fatal(err)
			}
			revive = append(revive, n)
		}

		survivor.MaintainOnce(context.Background())

		es, err := cl.NodeAt(0).FindValue(context.Background(), key, 0)
		if err != nil {
			t.Fatalf("round %d: block lost after crashing k-1 holders: %v", round, err)
		}
		if es[0].Count != uint64(10+round) {
			t.Fatalf("round %d: count corrupted: %d", round, es[0].Count)
		}
		for _, n := range revive {
			if _, err := cl.Revive(context.Background(), n, 0); err != nil {
				t.Fatalf("round %d: revive: %v", round, err)
			}
		}
	}
}
