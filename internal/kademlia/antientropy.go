package kademlia

import (
	"context"
	"math"
	"sync"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// Summary-based anti-entropy (the bandwidth-frugal replica sync).
//
// The old maintenance path pushed every stored block, in full, to its k
// closest nodes every round — O(store size) bytes per round even when
// every replica already agreed. The summary path inverts that: replicas
// first exchange a fixed-size BlockSummary (field count + weight-map
// digest, see store_summary.go); matching digests end the exchange in
// one small round trip, and mismatches move only a delta — the fields
// the other side is missing or holds at a lower count. MergeMax applies
// deltas idempotently and commutatively, so partial syncs, retries and
// concurrent writers all converge.
//
// On top of the per-exchange savings, AntiEntropyOnce adds per-block
// timers (Kademlia §2.5 republish suppression): a block whose version
// moved since the last round was just written — write-time replication
// already spread it, so it skips a round — and a block that is unchanged
// and was synced recently is not re-checked until RepublishEvery rounds
// have passed. Every block is still force-synced at least once per
// RepublishEvery rounds, so replica staleness stays bounded even for
// permanently hot blocks.

// DefaultRepublishEvery is how many anti-entropy rounds an unchanged,
// already-synced block sits out between summary checks.
const DefaultRepublishEvery = 4

// aeNeverSynced is the "last synced round" sentinel for blocks that
// have never completed a sync: far enough in the past that the periodic
// force-sync rule fires on the first round that sees them.
const aeNeverSynced = math.MinInt64 / 2

// AntiEntropyRound reports what one AntiEntropyOnce round did.
type AntiEntropyRound struct {
	Synced     int // blocks summary-synced this round
	Suppressed int // blocks that skipped the round as recently written
	Skipped    int // blocks synced earlier and not yet due again
	Acks       int // replica acknowledgements (digest match counts as one)
}

// AntiEntropyOnce runs one timer-driven anti-entropy round over the
// local store. Per block, in priority order:
//
//  1. due — never synced, or RepublishEvery rounds since the last sync:
//     summary-sync it regardless of write activity (bounds staleness);
//  2. recently written — its version moved since the previous round:
//     skip (write-time replication just spread it; syncing now would
//     re-send what the write already delivered);
//  3. settled — unchanged since last round but changed since its last
//     sync: summary-sync it;
//  4. otherwise skip until due again.
//
// every <= 0 uses DefaultRepublishEvery. every = 1 makes every block
// due every round: the forced full-coverage sweep a crash repair or a
// rejoining node needs. A cancelled ctx stops the sweep between blocks
// and aborts the in-flight RPCs.
func (n *Node) AntiEntropyOnce(ctx context.Context, every int) AntiEntropyRound {
	if every <= 0 {
		every = DefaultRepublishEvery
	}
	var r AntiEntropyRound
	n.aeMu.Lock()
	n.aeRoundCtr++
	round := n.aeRoundCtr
	n.aeMu.Unlock()
	for _, key := range n.store.Keys() {
		if ctx.Err() != nil {
			break
		}
		v, ok := n.store.Version(key)
		if !ok {
			continue
		}
		n.aeMu.Lock()
		seen, seenOK := n.aeSeen[key]
		syncedV := n.aeSyncedV[key]
		lastRound, syncedOK := n.aeRoundAt[key]
		if !syncedOK {
			lastRound = aeNeverSynced
		}
		n.aeSeen[key] = v
		n.aeMu.Unlock()

		due := round-lastRound >= int64(every)
		switch {
		case !due && seenOK && seen != v:
			r.Suppressed++
			n.counters.Suppressed.Inc()
			continue
		case !due && syncedOK && syncedV == v:
			r.Skipped++
			n.counters.Skipped.Inc()
			continue
		}

		targets := n.insertSelf(n.IterativeFindNode(ctx, key), key)
		r.Acks += n.syncBlock(ctx, key, targets)
		r.Synced++
		n.aeMu.Lock()
		n.aeSyncedV[key] = v
		n.aeRoundAt[key] = round
		n.aeMu.Unlock()
	}
	return r
}

// syncBlock reconciles the block under key with every target, in
// parallel, using the summary exchange, and returns how many replicas
// acknowledged — a digest match counts: the replica demonstrably holds
// the same weight map. The full block is fetched lazily, so a round
// where every replica matches never materializes it.
func (n *Node) syncBlock(ctx context.Context, key kadid.ID, targets []wire.Contact) int {
	local, ok := n.store.Summary(key)
	if !ok {
		return 0
	}
	n.counters.Synced.Inc()
	var fullMu sync.Mutex
	var full []wire.Entry
	fullEntries := func() []wire.Entry {
		fullMu.Lock()
		defer fullMu.Unlock()
		if full == nil {
			full, _ = n.store.Get(key, 0)
		}
		return full
	}
	acks := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range targets {
		if c.ID == n.id {
			continue // we already hold it
		}
		wg.Add(1)
		go func(c wire.Contact) {
			defer wg.Done()
			if n.syncBlockWith(ctx, key, local, c, fullEntries) {
				mu.Lock()
				acks++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return acks
}

// syncBlockWith runs the summary exchange with one replica:
//
//	-> SUMMARY {key, our summary}
//	<- SUMMARY_REPLY {their summary, their (field,count) map on mismatch}
//	-> REPLICATE {only the fields they miss or hold lower}   (if any)
//
// and pull-merges any counts the replica holds above ours, so a single
// exchange heals both directions. Returns whether the replica is known
// to hold at least our state afterwards.
func (n *Node) syncBlockWith(ctx context.Context, key kadid.ID, local wire.BlockSummary, c wire.Contact, fullEntries func() []wire.Entry) bool {
	if n.cfg.Revoked != nil && n.cfg.Revoked(c.ID) {
		// A revoked replica gets neither our deltas nor — more
		// importantly — a chance to feed us counts through the pull
		// half of the exchange.
		return false
	}
	var resp wire.Message
	err := n.call(ctx, c, &wire.Message{Kind: wire.KindSummary, Target: key, Summary: local}, &resp)
	if err != nil || resp.Kind != wire.KindSummaryReply {
		return false
	}
	if resp.Summary == local {
		n.counters.DigestMatches.Inc()
		return true
	}
	entries := fullEntries()
	var delta []wire.Entry
	fallback := resp.Summary.Fields > 0 && len(resp.Entries) == 0
	if fallback {
		// The replica has a block but could not enumerate it (wider than
		// a message allows): fall back to the whole-block push.
		delta = entries
		n.counters.FullBlocks.Inc()
	} else {
		remote := make(map[string]uint64, len(resp.Entries))
		for _, e := range resp.Entries {
			remote[e.Field] = e.Count
		}
		delta = deltaEntries(entries, remote)
		// Pull: counts the replica holds above ours merge back locally
		// (count-only — any blob travels with a later push the usual way).
		localCounts := make(map[string]uint64, len(entries))
		for _, e := range entries {
			localCounts[e.Field] = e.Count
		}
		if pull := deltaEntries(resp.Entries, localCounts); len(pull) > 0 {
			n.counters.PullEntries.Add(int64(len(pull)))
			n.store.MergeMax(ctx, key, pull) //nolint:errcheck // best-effort pull
		}
	}
	if len(delta) == 0 {
		return true // the replica holds a superset; nothing to push
	}
	// The summary reply has been consumed; resp now receives the ack.
	err = n.call(ctx, c, &wire.Message{Kind: wire.KindReplicate, Target: key, Entries: delta}, &resp)
	if err != nil || resp.Kind != wire.KindStoreAck {
		return false
	}
	if !fallback {
		n.counters.DeltaEntries.Add(int64(len(delta)))
	}
	return true
}

// deltaEntries selects the entries of local whose field the other side
// is missing or holds at a lower count — exactly what MergeMax applied
// remotely needs to raise the other replica to the field-wise maximum
// of the pair. It is the push direction of the sync; the pull half uses
// the same shape with the roles swapped.
func deltaEntries(local []wire.Entry, remote map[string]uint64) []wire.Entry {
	var delta []wire.Entry
	for _, e := range local {
		if rc, ok := remote[e.Field]; !ok || e.Count > rc {
			delta = append(delta, e)
		}
	}
	return delta
}
