package kademlia

import (
	"context"
	"encoding/binary"
)

// refreshBuckets is how many non-empty buckets one maintenance round
// refreshes. Refreshing every bucket every round would cost a full
// lookup per bucket; a rotating sample amortizes it.
const refreshBuckets = 2

// MaintenanceRound reports what one MaintainOnce round did: the dead
// contacts it evicted, the buckets it refreshed, and its anti-entropy
// block decisions and replica acknowledgements.
type MaintenanceRound struct {
	Evicted   int // dead contacts dropped from the routing table
	Refreshed int // bucket refresh lookups performed
	AntiEntropyRound
}

// MaintainOnce runs one round of the three duties Kademlia prescribes
// for surviving churn:
//
//   - dead-contact eviction: every routing-table contact is pinged and
//     non-responders are dropped, so lookups stop wasting their k-window
//     on crashed peers;
//   - bucket refresh: random lookups inside a few buckets keep the table
//     populated as the membership moves;
//   - anti-entropy: blocks are reconciled with the k nodes currently
//     closest to their key via the summary exchange (digest first, delta
//     on mismatch — see antientropy.go), under per-block timers: a block
//     just written skips a round, an unchanged synced block waits
//     DefaultRepublishEvery rounds between checks. This is what moves
//     replicas onto joiners and off the footprint of the dead, at a
//     per-round cost proportional to divergence instead of store size.
//
// The node starts no background work: its owner sets the cadence by
// calling MaintainOnce. The buckets refreshed are drawn from a source
// seeded by the node ID and the round number, so a seeded overlay
// refreshes the same buckets every run. On a detached node (crashed,
// departed) the round is a no-op and reports zeros: a dead node
// performs no maintenance. ctx bounds the round — a cancelled context
// aborts the in-flight refresh and republish RPCs mid-sweep.
func (n *Node) MaintainOnce(ctx context.Context) MaintenanceRound {
	var r MaintenanceRound
	if n.Detached() {
		return r
	}
	// A round is where the table and the replicas move (evictions,
	// refreshes, anti-entropy onto joiners): stores after it walk again.
	n.table.newEpoch()
	r.Evicted = n.EvictDead(ctx)
	rng := newRand(int64(binary.BigEndian.Uint64(n.id[:8])) + n.maintRounds.Add(1))
	buckets := n.table.NonEmptyBuckets()
	for ; r.Refreshed < refreshBuckets && len(buckets) > 0; r.Refreshed++ {
		if ctx.Err() != nil {
			return r
		}
		n.RefreshBucket(ctx, buckets[rng.Intn(len(buckets))], rng.Int63())
	}
	r.AntiEntropyRound = n.AntiEntropyOnce(ctx, DefaultRepublishEvery)
	return r
}

// EvictDead pings every routing-table contact and reports how many were
// dropped for not answering twice. A single failed exchange is not
// evidence of death on a lossy network — under an injected 2% drop rate
// one-strike eviction would falsely remove ~2% of healthy contacts per
// sweep — so a failed ping (whose error path already removed the
// contact) gets one retry, and a successful retry re-admits the contact
// through the routing table's usual update path. A cancelled ctx stops
// the sweep early (cancelled pings evict nobody: node.call only removes
// contacts on genuine failures).
func (n *Node) EvictDead(ctx context.Context) int {
	if n.Detached() {
		return 0
	}
	evicted := 0
	for _, c := range n.table.Contacts() {
		if ctx.Err() != nil {
			return evicted
		}
		if n.Ping(ctx, c) || n.Ping(ctx, c) {
			continue
		}
		// Count only real removals: if this node detached mid-sweep the
		// pings failed locally (errDetached) and the table kept the
		// contact, which must not inflate the eviction stat.
		if !n.table.Contains(c.ID) {
			evicted++
		}
	}
	return evicted
}
