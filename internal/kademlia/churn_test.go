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

func TestReadRepairWritesBackStaleAndEmptyReplicas(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		N:    24,
		Node: Config{K: 6, Alpha: 3, ReadRepair: true},
		Seed: 67,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := kadid.HashString("repairable|2")
	if _, err := cl.Nodes[2].Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 4}}); err != nil {
		t.Fatal(err)
	}

	// Make one replica fresher than the rest by appending to its local
	// store directly — the staleness read-repair exists to heal.
	holders := holdersOf(cl, key)
	if len(holders) < 2 {
		t.Skipf("only %d holders under this seed", len(holders))
	}
	holders[0].LocalStore().Append(context.Background(), key, []wire.Entry{{Field: "f", Count: 6}}) // now 10

	reader := cl.NodeAt(20)
	es, err := reader.FindValue(context.Background(), key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if es[0].Count != 10 {
		t.Fatalf("read did not surface the freshest replica: %d", es[0].Count)
	}
	if reader.Repairs() == 0 {
		t.Fatal("no repairs recorded although replicas diverged")
	}
	// A repair-mode read surveys the whole k-closest window before
	// merging, so afterwards every one of the k closest nodes to the
	// key must hold the block at the merged maximum. (A holder outside
	// that window — replica placement drifts as lookups differ — is not
	// observed by the read and converges later through republish.)
	for _, c := range cl.ClosestGroundTruth(key, 6) {
		for _, n := range cl.Snapshot() {
			if n.Self().ID != c.ID {
				continue
			}
			es, ok := n.LocalStore().Get(key, 0)
			if !ok {
				t.Fatalf("closest node %s has no copy after read-repair", c.Addr)
			}
			if es[0].Count != 10 {
				t.Fatalf("closest node %s still stale after read-repair: %d", c.Addr, es[0].Count)
			}
		}
	}
}

func TestReadRepairRefillsEmptyReplicas(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		N:    32,
		Node: Config{K: 6, Alpha: 3, ReadRepair: true},
		Seed: 73,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := kadid.HashString("refill|1")
	if _, err := cl.Nodes[3].Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 8}}); err != nil {
		t.Fatal(err)
	}

	// Crash every holder but one; no republish runs. The next read must
	// find the survivor and synchronously re-seed the block onto live
	// nodes of the k-closest set it observed.
	holders := holdersOf(cl, key)
	if len(holders) < 2 {
		t.Skipf("only %d holders under this seed", len(holders))
	}
	survivor := holders[0]
	if survivor == cl.NodeAt(0) {
		survivor = holders[1]
	}
	for _, h := range holders {
		if h == survivor || h == cl.NodeAt(0) {
			continue
		}
		if _, err := cl.Crash(indexOf(cl, h)); err != nil {
			t.Fatal(err)
		}
	}
	if cl.NodeAt(0).LocalStore().Has(key) {
		t.Skip("bootstrap node holds the block under this seed; scenario not isolated")
	}

	reader := cl.NodeAt(0)
	es, err := reader.FindValue(context.Background(), key, 0)
	if err != nil {
		t.Fatalf("value unreadable with one live holder: %v", err)
	}
	if es[0].Count != 8 {
		t.Fatalf("count corrupted: %d", es[0].Count)
	}
	if reader.Repairs() == 0 {
		t.Fatal("read of an under-replicated block performed no repairs")
	}
	if live := holdersOf(cl, key); len(live) < 2 {
		t.Fatalf("block still has %d live holders after read-repair", len(live))
	}
}

func TestFilteredReadNeverRepairs(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		N:    16,
		Node: Config{K: 4, Alpha: 3, ReadRepair: true},
		Seed: 68,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := kadid.HashString("filtered-repair|1")
	var entries []wire.Entry
	for i := 0; i < 8; i++ {
		entries = append(entries, wire.Entry{Field: fmt.Sprintf("t%d", i), Count: uint64(i + 1)})
	}
	if _, err := cl.Nodes[0].Store(context.Background(), key, entries); err != nil {
		t.Fatal(err)
	}
	holders := holdersOf(cl, key)
	if len(holders) == 0 {
		t.Fatal("no holders")
	}
	holders[0].LocalStore().Append(context.Background(), key, []wire.Entry{{Field: "t0", Count: 50}})

	reader := cl.NodeAt(10)
	if _, err := reader.FindValue(context.Background(), key, 2); err != nil {
		t.Fatal(err)
	}
	if got := reader.Repairs(); got != 0 {
		t.Fatalf("filtered read performed %d repairs; truncated responses must not be treated as stale", got)
	}
}

func TestCrashedKMinusOneHoldersStayReadableAfterRepair(t *testing.T) {
	// The acceptance scenario in miniature: with replication k, crash
	// k-1 holders of a block; after one maintenance round on the
	// survivor the block must be fully readable with intact counts.
	cl, err := NewCluster(ClusterConfig{
		N:    40,
		Node: Config{K: 5, Alpha: 3, ReadRepair: true},
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
