package kademlia

import (
	"context"
	"sync"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/persist"
	"dharma/internal/wire"
)

// Replica maintenance. Kademlia keeps values alive under churn by
// periodically republishing each stored block to the nodes currently
// closest to its key. Republication must be idempotent — replicas that
// already hold the block must not double-count its weights — so it uses
// a dedicated merge rule: per-field MAXIMUM instead of addition. Block
// counts grow monotonically, so max-merge converges every replica to
// the most complete state it has seen (an anti-entropy exchange in the
// G-Counter style; increments applied to disjoint replica sets during a
// partition are reconciled to the larger side rather than summed, an
// approximation consistent with DHARMA's tolerance for approximate
// weights).

// MergeMax merges entries into the block under key taking the maximum
// count per field. Data and its signature envelope are adopted when the
// local copy has none. Like Append, an empty entries slice materializes
// nothing, and a durable store logs the merge before acknowledging —
// a node is a replica, so replicated state must survive its restarts
// exactly like state it stored first-hand.
func (s *Store) MergeMax(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	if m := s.metrics; m != nil {
		start := time.Now()
		defer func() {
			m.appendLatency.At(int(key[0] & (storeShards - 1))).Observe(time.Since(start))
		}()
	}
	if s.dur != nil {
		return s.dur.commit(ctx, persist.Record{Op: persist.OpMergeMax, Key: key, Entries: entries},
			func() { s.applyMergeMax(key, entries) })
	}
	s.applyMergeMax(key, entries)
	return nil
}

// applyMergeMax is the in-memory half of MergeMax.
func (s *Store) applyMergeMax(key kadid.ID, entries []wire.Entry) {
	sh := s.shard(key)
	sh.mu.Lock()
	sh.mergeMaxLocked(key, entries)
	sh.mu.Unlock()
}

// RepublishOnce reconciles every locally stored block with the k nodes
// currently closest to its key. It returns how many blocks were swept
// and how many replica acknowledgements came back (a digest match
// counts — the replica demonstrably holds the block). The sweep is
// forced — no per-block timers, every block every call — but each
// exchange is summary-based (see antientropy.go): replicas that already
// agree cost one digest round trip instead of a whole-block push, and
// disagreeing replicas receive only the delta. Deployments needing
// periodic maintenance should prefer Node.MaintainOnce, which drives
// the timer-suppressed AntiEntropyOnce; RepublishOnce is for callers that
// must guarantee full coverage now (the chaos harness's repair phase,
// tests, a node rejoining after downtime). A cancelled ctx stops the
// sweep between blocks and aborts the in-flight RPCs.
func (n *Node) RepublishOnce(ctx context.Context) (blocks int, acks int) {
	for _, key := range n.store.Keys() {
		if ctx.Err() != nil {
			return blocks, acks
		}
		targets := n.insertSelf(n.IterativeFindNode(ctx, key), key)
		got := n.syncBlock(ctx, key, targets)
		blocks++
		acks += got
	}
	return blocks, acks
}

// RepublishFullOnce is the pre-summary maintenance sweep: every block
// pushed whole to its k closest nodes, unconditionally. It is kept as
// the measured baseline for the summary path (`dharma-bench
// antientropy` reports bytes/round for both) and as a belt-and-braces
// fallback that moves blobs even where digests would agree.
func (n *Node) RepublishFullOnce(ctx context.Context) (blocks int, acks int) {
	blocks, acks, _ = n.pushBlocks(ctx, true, false)
	return blocks, acks
}

// pushBlocks is the replicate fan-out shared by RepublishOnce (the
// node stays a replica: its own contact counts towards the k targets)
// and Handoff (the node is leaving: all k targets are other nodes).
// With retryUnacked, a block no replica acknowledged gets one more
// attempt against a fresh lookup; blocks that still land nowhere are
// returned so the caller can report the incomplete leave.
func (n *Node) pushBlocks(ctx context.Context, includeSelf, retryUnacked bool) (blocks, acks int, unacked []kadid.ID) {
	for _, key := range n.store.Keys() {
		if ctx.Err() != nil {
			return blocks, acks, unacked
		}
		entries, ok := n.store.Get(key, 0)
		if !ok {
			continue // deleted concurrently
		}
		targets := n.IterativeFindNode(ctx, key)
		if includeSelf {
			targets = n.insertSelf(targets, key)
		}
		blocks++
		got := n.replicateTo(ctx, key, entries, targets)
		if got == 0 && retryUnacked && ctx.Err() == nil {
			// The first target set may have been stale under churn; one
			// bounded retry against a fresh lookup, then give up and
			// report rather than block the departure indefinitely.
			got = n.replicateTo(ctx, key, entries, n.IterativeFindNode(ctx, key))
		}
		if got == 0 && retryUnacked {
			unacked = append(unacked, key)
		}
		acks += got
	}
	return blocks, acks, unacked
}

// replicateTo sends one block to every target but the node itself (in
// parallel) and returns how many acknowledged.
func (n *Node) replicateTo(ctx context.Context, key kadid.ID, entries []wire.Entry, targets []wire.Contact) int {
	acks := 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, c := range targets {
		if c.ID == n.id {
			continue // we already hold it
		}
		wg.Add(1)
		go func(c wire.Contact) {
			defer wg.Done()
			var resp wire.Message
			err := n.call(ctx, c, &wire.Message{
				Kind:    wire.KindReplicate,
				Target:  key,
				Entries: entries,
			}, &resp)
			if err == nil && resp.Kind == wire.KindStoreAck {
				mu.Lock()
				acks++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return acks
}
