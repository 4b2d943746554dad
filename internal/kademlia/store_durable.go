package kademlia

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dharma/internal/persist"
)

// Durable storage. OpenDurableStore puts a write-ahead log under the
// block store: every Append/AppendBatch/MergeMax is logged (and
// group-commit flushed) before it is acknowledged, so an acknowledged
// write survives the death of the process. Recovery replays the newest
// snapshot plus the WAL tail through the store's one apply path, which
// rebuilds each block's incremental top-N index as a side effect —
// a recovered store filters reads exactly like the one that died.
//
// Compaction (snapshot-and-truncate) runs automatically in the
// background once the log outgrows persist.Options.CompactBytes; it
// briefly stalls writers (the snapshot must be an exact cut) while
// readers proceed.

// durability is the glue between a Store and its write-ahead log.
type durability struct {
	wal        *persist.Log
	store      *Store
	compacting atomic.Bool
	compactWG  sync.WaitGroup // in-flight background compaction; Close drains it
}

// OpenDurableStore opens (or creates) a durable block store rooted at
// dir, replaying any previous state. The returned stats describe the
// recovery.
func OpenDurableStore(dir string, opts persist.Options) (*Store, persist.RecoveryStats, error) {
	s := NewStore()
	wal, stats, err := persist.Open(dir, opts, func(rec persist.Record) error {
		if rec.Op != persist.OpAppend && rec.Op != persist.OpMergeMax {
			return fmt.Errorf("kademlia: unknown logged op %d", rec.Op)
		}
		s.apply(rec.Op, []BatchItem{{Key: rec.Key, Entries: rec.Entries}})
		return nil
	})
	if err != nil {
		return nil, stats, fmt.Errorf("kademlia: open durable store: %w", err)
	}
	s.dur = &durability{wal: wal, store: s}
	return s, stats, nil
}

// WAL exposes the backing log (stats, explicit compaction, tests); nil
// for an in-memory store.
func (s *Store) WAL() *persist.Log {
	if s.dur == nil {
		return nil
	}
	return s.dur.wal
}

// Close flushes and cleanly shuts down the backing log; it is a no-op
// on an in-memory store. An in-flight background compaction is waited
// out first, so a clean shutdown never races the snapshot writer
// against the closing log.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	s.dur.compactWG.Wait()
	return s.dur.wal.Close()
}

// SimulateCrash kills the backing log the way SIGKILL would: staged
// but unacknowledged writes are dropped, acknowledged ones stay on
// disk, nothing is flushed on the way out. The in-memory contents are
// NOT cleared — the caller abandons the store object, the way a dead
// process's heap is abandoned — and a later OpenDurableStore on the
// same directory recovers only what was acknowledged. No-op on an
// in-memory store.
func (s *Store) SimulateCrash() {
	if s.dur != nil {
		s.dur.wal.Crash()
	}
}

// commit is mutate's durable half: the non-empty items go to the log
// as one commit, applied under the log's commit lock, and the call
// returns once they are durable. It lives apart from mutate so the
// in-memory path, which runs on a fresh goroutine stack for every
// served STORE, keeps a small frame.
func (s *Store) commit(ctx context.Context, op persist.Op, items []BatchItem) error {
	var one [1]persist.Record // a one-item write logs without a heap slice
	recs := one[:0]
	if len(items) > 1 {
		recs = make([]persist.Record, 0, len(items))
	}
	for _, it := range items {
		if len(it.Entries) > 0 {
			recs = append(recs, persist.Record{Op: op, Key: it.Key, Entries: it.Entries})
		}
	}
	if len(recs) == 0 {
		return nil
	}
	if err := s.dur.wal.Commit(ctx, recs, func() { s.apply(op, items) }); err != nil {
		return err
	}
	s.dur.maybeCompact()
	return nil
}

// maybeCompact starts one background snapshot-and-truncate pass when
// the log crossed its compaction threshold. At most one pass runs at a
// time; errors poison the log (later commits surface them).
func (d *durability) maybeCompact() {
	threshold := d.wal.Options().CompactBytes
	if threshold <= 0 || d.wal.BytesSinceCompact() < threshold {
		return
	}
	if !d.compacting.CompareAndSwap(false, true) {
		return
	}
	d.compactWG.Add(1)
	go func() {
		defer d.compactWG.Done()
		defer d.compacting.Store(false)
		// The error, if any, is sticky inside the log; the next commit
		// reports it to a caller that can refuse the ack.
		d.wal.Compact(d.store.dumpBlocks) //nolint:errcheck
	}()
}

// Compact synchronously snapshots the store's state and truncates the
// WAL (tests and shutdown hooks; background compaction normally keeps
// the log bounded on its own).
func (s *Store) Compact() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.wal.Compact(s.dumpBlocks)
}

// dumpBlocks streams every block to the snapshot writer as a max-merge
// record — loading a snapshot into an empty store is exact, and
// max-merge keeps even a double-loaded snapshot idempotent. It runs
// with the log's commit lock held, so writers are frozen; readers are
// not (the store's read lock is shared).
func (s *Store) dumpBlocks(add func(persist.Record) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for key, blk := range s.blocks {
		if err := add(persist.Record{Op: persist.OpMergeMax, Key: key, Entries: blk.list(true)}); err != nil {
			return err
		}
	}
	return nil
}
