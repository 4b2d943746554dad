package kademlia

import (
	"context"
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
