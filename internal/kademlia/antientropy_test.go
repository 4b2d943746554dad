package kademlia

import (
	"context"
	"fmt"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// Integration tests for the summary exchange and the per-block timers,
// on a small simnet overlay where every node replicates every block
// (K = n), so replica state is fully deterministic.

func TestSummarySyncSuppressesDataWhenReplicasAgree(t *testing.T) {
	cl := newTestCluster(t, 8, 7001)
	a := cl.Nodes[0]
	key := kadid.HashString("agreed|3")
	if _, err := a.Store(context.Background(), key, []wire.Entry{
		{Field: "rock", Count: 3}, {Field: "jazz", Count: 1},
	}); err != nil {
		t.Fatal(err)
	}

	// Write-time replication already converged all 8 replicas, so a full
	// republish sweep must be pure digest traffic: matches, no deltas,
	// no whole-block fallbacks.
	r := a.AntiEntropyOnce(context.Background(), 1)
	c := a.Counters()
	if r.Synced != 1 || r.Acks != 7 {
		t.Fatalf("forced sweep = %+v, want 1 synced / 7 acks", r)
	}
	if got := c.DigestMatches.Load(); got != 7 {
		t.Fatalf("DigestMatches = %d, want 7", got)
	}
	if d, f, p := c.DeltaEntries.Load(), c.FullBlocks.Load(), c.PullEntries.Load(); d != 0 || f != 0 || p != 0 {
		t.Fatalf("agreeing replicas moved data: delta=%d full=%d pull=%d", d, f, p)
	}
	if out, in := c.MaintBytesSent.Load(), c.MaintBytesRecv.Load(); out == 0 || in == 0 {
		t.Fatalf("summary exchange metered no bytes: out=%d in=%d", out, in)
	}
}

func TestSummarySyncPushesOnlyTheDelta(t *testing.T) {
	cl := newTestCluster(t, 8, 7002)
	a := cl.Nodes[0]
	key := kadid.HashString("diverged|3")
	if _, err := a.Store(context.Background(), key, []wire.Entry{
		{Field: "rock", Count: 3}, {Field: "jazz", Count: 1}, {Field: "pop", Count: 2},
	}); err != nil {
		t.Fatal(err)
	}

	// Diverge: one new field lands only on a's local replica (a write a
	// crashed replica set would have missed).
	if err := a.LocalStore().Append(context.Background(), key, []wire.Entry{{Field: "indie", Count: 5}}); err != nil {
		t.Fatal(err)
	}

	c := a.Counters()
	deltaBefore, fullBefore := c.DeltaEntries.Load(), c.FullBlocks.Load()
	if r := a.AntiEntropyOnce(context.Background(), 1); r.Acks != 7 {
		t.Fatalf("acks = %d, want 7", r.Acks)
	}
	// Each of the 7 stale replicas receives exactly the 1 missing entry,
	// not the 4-entry block.
	if got := c.DeltaEntries.Load() - deltaBefore; got != 7 {
		t.Fatalf("delta entries pushed = %d, want 7 (one per replica)", got)
	}
	if got := c.FullBlocks.Load() - fullBefore; got != 0 {
		t.Fatalf("delta sync fell back to %d full-block pushes", got)
	}
	for i, n := range cl.Nodes {
		es, ok := n.LocalStore().Get(key, 0)
		if !ok || len(es) != 4 {
			t.Fatalf("node %d did not converge: %v (ok=%v)", i, es, ok)
		}
	}

	// A second sweep is back to pure digest matches.
	deltaBefore, matchesBefore := c.DeltaEntries.Load(), c.DigestMatches.Load()
	a.AntiEntropyOnce(context.Background(), 1)
	if d, m := c.DeltaEntries.Load()-deltaBefore, c.DigestMatches.Load()-matchesBefore; d != 0 || m != 7 {
		t.Fatalf("converged replicas still pushed data: %d delta entries, %d digest matches", d, m)
	}
}

func TestSummarySyncPullsHigherRemoteCounts(t *testing.T) {
	cl := newTestCluster(t, 8, 7003)
	a, b := cl.Nodes[0], cl.Nodes[1]
	key := kadid.HashString("pulled|3")
	if _, err := a.Store(context.Background(), key, []wire.Entry{{Field: "rock", Count: 3}}); err != nil {
		t.Fatal(err)
	}

	// b's replica pulls ahead (a write a partitioned away from).
	if err := b.LocalStore().Append(context.Background(), key, []wire.Entry{{Field: "rock", Count: 10}}); err != nil {
		t.Fatal(err)
	}

	// a initiates the sync: it has nothing b misses, but the exchange
	// carries b's counts back, and a max-merges them in.
	a.AntiEntropyOnce(context.Background(), 1)
	if a.Counters().PullEntries.Load() == 0 {
		t.Fatal("no pull happened")
	}
	es, _ := a.LocalStore().Get(key, 0)
	if len(es) != 1 || es[0].Count != 13 {
		t.Fatalf("a did not adopt b's higher count: %v", es)
	}
}

// TestAntiEntropyTimers walks the per-block timer state machine through
// its full cycle and asserts each round's classification: first sight
// syncs, quiet rounds skip, a fresh write suppresses exactly one round,
// settling syncs, and the RepublishEvery deadline forces a re-check.
func TestAntiEntropyTimers(t *testing.T) {
	cl := newTestCluster(t, 8, 7004)
	a := cl.Nodes[0]
	key := kadid.HashString("timed|3")
	if _, err := a.Store(context.Background(), key, []wire.Entry{{Field: "rock", Count: 1}}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const every = 4

	// Round 1: never synced — due immediately.
	if r := a.AntiEntropyOnce(ctx, every); r.Synced != 1 || r.Acks != 7 {
		t.Fatalf("round 1 = %+v, want 1 synced / 7 acks", r)
	}
	// Round 2: unchanged and synced — skipped.
	if r := a.AntiEntropyOnce(ctx, every); r.Skipped != 1 || r.Synced != 0 {
		t.Fatalf("round 2 = %+v, want 1 skipped", r)
	}
	// A write lands between rounds.
	if err := a.LocalStore().Append(ctx, key, []wire.Entry{{Field: "jazz", Count: 2}}); err != nil {
		t.Fatal(err)
	}
	// Round 3: recently written — suppressed (write-time replication is
	// assumed to have spread it; the suppression is what the issue calls
	// "recently written blocks skip a round").
	if r := a.AntiEntropyOnce(ctx, every); r.Suppressed != 1 || r.Synced != 0 {
		t.Fatalf("round 3 = %+v, want 1 suppressed", r)
	}
	// Round 4: the block settled — synced (and the delta heals the
	// replicas that the direct local append skipped).
	if r := a.AntiEntropyOnce(ctx, every); r.Synced != 1 {
		t.Fatalf("round 4 = %+v, want 1 synced", r)
	}
	for i, n := range cl.Nodes {
		if es, _ := n.LocalStore().Get(key, 0); len(es) != 2 {
			t.Fatalf("node %d missed the settled sync: %v", i, es)
		}
	}
	// Rounds 5-7: quiet — skipped.
	for round := 5; round <= 7; round++ {
		if r := a.AntiEntropyOnce(ctx, every); r.Skipped != 1 {
			t.Fatalf("round %d = %+v, want 1 skipped", round, r)
		}
	}
	// Round 8: RepublishEvery rounds since the last sync — due again,
	// even though nothing changed (bounded staleness).
	if r := a.AntiEntropyOnce(ctx, every); r.Synced != 1 {
		t.Fatalf("round 8 = %+v, want 1 synced (periodic force-sync)", r)
	}
}

// TestAntiEntropySuppressionBounded: a block written every round is
// suppressed, but never starves past RepublishEvery — the periodic
// deadline force-syncs it.
func TestAntiEntropySuppressionBounded(t *testing.T) {
	cl := newTestCluster(t, 8, 7005)
	a := cl.Nodes[0]
	key := kadid.HashString("hot|3")
	ctx := context.Background()
	if _, err := a.Store(ctx, key, []wire.Entry{{Field: "rock", Count: 1}}); err != nil {
		t.Fatal(err)
	}
	const every = 4
	a.AntiEntropyOnce(ctx, every) // round 1: first sight, synced

	syncs := 0
	for round := 2; round <= 9; round++ {
		// The block is written before every round — permanently hot.
		if err := a.LocalStore().Append(ctx, key, []wire.Entry{{Field: "rock", Count: 1}}); err != nil {
			t.Fatal(err)
		}
		r := a.AntiEntropyOnce(ctx, every)
		syncs += r.Synced
		if r.Synced == 0 && r.Suppressed != 1 {
			t.Fatalf("round %d: hot block neither synced nor suppressed: %+v", round, r)
		}
	}
	// 8 hot rounds at every=4: the deadline fires at rounds 5 and 9.
	if syncs != 2 {
		t.Fatalf("hot block force-synced %d times in 8 rounds, want 2 (bounded staleness)", syncs)
	}
}

// TestAntiEntropyHealsEmptyReplicas: replicas that never saw a write
// (the block exists only on one node, as after a crash wave) are
// rebuilt by that node's sweep — an empty remote answers the summary
// probe with a zero summary, so the whole weight map is the delta.
func TestAntiEntropyHealsEmptyReplicas(t *testing.T) {
	cl := newTestCluster(t, 8, 7006)
	a := cl.Nodes[0]
	key := kadid.HashString("healed|3")
	ctx := context.Background()
	// Local-only write: the other 7 replicas never see it.
	if err := a.LocalStore().Append(ctx, key, []wire.Entry{
		{Field: "rock", Count: 3}, {Field: "jazz", Count: 1},
	}); err != nil {
		t.Fatal(err)
	}

	a.AntiEntropyOnce(ctx, 1)
	// Each of the 7 empty replicas received both entries as the delta.
	if got := a.Counters().DeltaEntries.Load(); got != 14 {
		t.Fatalf("DeltaEntries = %d, want 14 (2 entries x 7 empty replicas)", got)
	}
	for i, n := range cl.Nodes {
		es, ok := n.LocalStore().Get(key, 0)
		if !ok || len(es) != 2 {
			t.Fatalf("node %d not rebuilt: %v (ok=%v)", i, es, ok)
		}
	}
}

// TestAntiEntropyCountsOnlyAckedPushes: a REPLICATE push the network
// refuses (here: wider than the MTU) moves no delta entries and no
// maintenance bytes. The node's byte counters equal what the network
// actually delivered, which is the SUMMARY exchanges alone.
func TestAntiEntropyCountsOnlyAckedPushes(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		N:    8,
		Node: Config{K: 8, Alpha: 3},
		Net:  simnet.Config{MTU: 4096},
		Seed: 7007,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := cl.Nodes[0]
	key := kadid.HashString("wide|3")
	ctx := context.Background()
	// Local-only write of a block wider than one message: the empty
	// replicas' delta is the whole block, which the network refuses.
	block := make([]wire.Entry, 400)
	for i := range block {
		block[i] = wire.Entry{Field: fmt.Sprintf("field-%03d", i), Count: 1}
	}
	if err := a.LocalStore().Append(ctx, key, block); err != nil {
		t.Fatal(err)
	}
	targets := a.insertSelf(a.IterativeFindNode(ctx, key), key)

	c := a.Counters()
	deltaBefore, sentBefore, recvBefore := c.DeltaEntries.Load(), c.MaintBytesSent.Load(), c.MaintBytesRecv.Load()
	netBefore := cl.Net.Counters()
	if acks := a.syncBlock(ctx, key, targets); acks != 0 {
		t.Fatalf("acks = %d for pushes the network refused", acks)
	}
	net := cl.Net.Counters()
	if moved := c.DeltaEntries.Load() - deltaBefore; moved != 0 {
		t.Errorf("DeltaEntries moved by %d on refused pushes", moved)
	}
	sent, delivered := c.MaintBytesSent.Load()-sentBefore, net.BytesOut-netBefore.BytesOut
	if delivered == 0 || sent != delivered {
		t.Errorf("MaintBytesSent moved by %d B; the network delivered %d B", sent, delivered)
	}
	if recv, got := c.MaintBytesRecv.Load()-recvBefore, net.BytesIn-netBefore.BytesIn; recv != got {
		t.Errorf("MaintBytesRecv moved by %d B; the network delivered %d B", recv, got)
	}
	for i, n := range cl.Nodes[1:] {
		if n.LocalStore().Has(key) {
			t.Errorf("node %d holds a block whose push was refused", i+1)
		}
	}
}
