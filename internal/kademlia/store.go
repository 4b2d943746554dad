package kademlia

import (
	"bytes"
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/obs"
	"dharma/internal/persist"
	"dharma/internal/wire"
)

// Store is a node's local block storage. A block is a weighted set of
// fields: DHARMA appends "+1 tokens" to a (block, field) pair, so the
// only mutation is a commutative merge, which is what makes concurrent
// tagging race-free (Approximation B relies on this).
//
// The store is built for the paper's access pattern at scale. Tag
// popularity is heavily skewed, so a handful of hot blocks take most of
// the traffic, and every SearchStep asks for the top-topN entries of
// such a block (index-side filtering). Two structural choices follow:
//
//   - One RWMutex guards the block map. Skewed traffic falls on a few
//     hot blocks, and a block is the unit any finer lock would still
//     have to serialise on, so striping the map bought no measured
//     throughput (see BenchmarkStoreHotMixedParallel).
//   - Every block maintains its descending-count order incrementally: a
//     bounded, exactly-sorted top index (topIndexCap entries) is updated
//     on each append, so Get(key, topN) for topN ≤ topIndexCap is
//     O(topN) instead of a full O(n log n) re-sort of a block that may
//     hold tens of thousands of arcs. Counts only grow (Append adds,
//     MergeMax takes the max), which keeps the maintenance cheap: a
//     bumped entry can only move towards the front.
//
// Mutations (Append, AppendBatch, MergeMax) return an error so that a
// durable backend can refuse to acknowledge a write it could not log;
// the in-memory store never fails.
type Store struct {
	mu     sync.RWMutex
	blocks map[kadid.ID]*block

	// dur, when set, write-ahead-logs every mutation before it is
	// acknowledged (see OpenDurableStore); nil keeps the store purely
	// in-memory.
	dur *durability

	// metrics, when set by Instrument, times appends and reads. Nil
	// (the default) keeps the mutation paths clock-free.
	metrics *storeMetrics
}

// storeMetrics holds the store's latency instruments. The
// append histogram covers the full acknowledged write — on a durable
// store that includes the WAL group-commit wait, which is exactly the
// latency a writer experiences.
type storeMetrics struct {
	appendLatency *obs.Histogram
	getLatency    *obs.Histogram
}

// Instrument registers append/get latency histograms on reg and starts
// timing. Call once, before the store serves traffic; a nil reg is a
// no-op.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.metrics = &storeMetrics{
		appendLatency: reg.Histogram("dharma_store_append_seconds",
			"Acknowledged block append latency (including WAL commit)."),
		getLatency: reg.Histogram("dharma_store_get_seconds", "Block read latency."),
	}
}

// topIndexCap bounds the incrementally sorted head of each block. It
// must cover the largest filter a search step asks for (the paper uses
// top-100); reads beyond it fall back to a full sort.
const topIndexCap = 128

// block is one stored weighted set plus its maintained head.
type block struct {
	fields map[string]*storedEntry
	// top holds the min(len(fields), topIndexCap) greatest entries in
	// exact (count desc, field asc) order.
	top []*storedEntry
	// digest is the anti-entropy summary: an XOR fold of
	// fieldDigest(field, count) over every field, maintained
	// incrementally at each count transition like the top index (see
	// store_summary.go). It covers the weight map only, not Data.
	digest uint64
	// version counts mutations that changed the block; per-block
	// republish timers use it as a write clock ("recently written blocks
	// skip a round") without reading wall time.
	version uint64
}

type storedEntry struct {
	field  string
	count  uint64
	data   []byte
	author []byte
	sig    []byte
	// pos is the entry's index in the block's top slice, -1 when the
	// entry is not part of the maintained head.
	pos int
}

// storedLess is the block order: descending count, ties broken by
// ascending field name.
func storedLess(a, b *storedEntry) bool {
	if a.count != b.count {
		return a.count > b.count
	}
	return a.field < b.field
}

// BatchItem is one (key, entries) pair of a multi-block append.
type BatchItem struct {
	Key     kadid.ID
	Entries []wire.Entry
}

// NewStore creates an empty block store.
func NewStore() *Store {
	return &Store{blocks: make(map[kadid.ID]*block)}
}

// Append merges entries into the block stored under key. Counts add up;
// an entry with Init > 0 whose field is absent is created at Init
// instead (Approximation B's conditional create, evaluated here at the
// storage node); non-empty Data (with its signature envelope) replaces
// the stored copy. An empty entries slice is a no-op: it must not
// materialize an empty block (a tagging operation whose forward-arc set
// is empty still costs its Table-I lookup, but the storage node keeps
// nothing for it).
// A durable store logs the append before acknowledging; a non-nil
// error means the write must not be acked (the entries may or may not
// have reached memory, but they were never promised to survive).
func (s *Store) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	return s.mutate(ctx, persist.OpAppend, BatchItem{Key: key, Entries: entries})
}

// AppendBatch merges every item in one pass under one lock. It is the
// storage half of the engine's batched write path: every write of an
// operation after its first (a tagging operation's t̄, t̂ and reverse
// arcs; an insertion's r̄, t̄ and t̂ blocks) targets a distinct key and
// commutes with the others, so they can be applied as one grouped call.
// On a durable store the whole batch is logged as one commit — one
// group-commit flush covers every item.
func (s *Store) AppendBatch(ctx context.Context, items []BatchItem) error {
	return s.mutate(ctx, persist.OpAppend, items...)
}

// MergeMax merges entries into the block under key taking the maximum
// count per field: the replica-maintenance rule (see mergeLocked).
// Data and its signature envelope are adopted when the local copy has
// none. Like Append, an empty entries slice materializes nothing, and a
// durable store logs the merge before acknowledging — a node is a
// replica, so replicated state must survive its restarts exactly like
// state it stored first-hand.
func (s *Store) MergeMax(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	return s.mutate(ctx, persist.OpMergeMax, BatchItem{Key: key, Entries: entries})
}

// mutate is the one write path: it applies items under rule op (the
// persist.Op the WAL logs it as), skipping empty ones. In memory every
// item is applied under one lock; a durable store logs the non-empty
// items as one WAL commit first (see commit).
func (s *Store) mutate(ctx context.Context, op persist.Op, items ...BatchItem) error {
	if m := s.metrics; m != nil {
		start := time.Now()
		defer func() {
			m.appendLatency.Observe(time.Since(start))
		}()
	}
	if s.dur != nil {
		return s.commit(ctx, op, items)
	}
	s.apply(op, items)
	return nil
}

// apply is the in-memory half of mutate, and what WAL replay runs.
func (s *Store) apply(op persist.Op, items []BatchItem) {
	s.mu.Lock()
	for i := range items {
		if len(items[i].Entries) > 0 {
			s.mergeLocked(op, items[i].Key, items[i].Entries)
		}
	}
	s.mu.Unlock()
}

// mergeLocked applies entries to the block under key by one of the two
// rules. The rules differ in three places only:
//
//   - creation: an append creates an absent field at Init when Init > 0
//     (Approximation B), else at Count; a merge creates it at Count.
//   - growth: an append adds Count; a merge takes the maximum.
//   - Data (with its signature envelope): an append replaces the stored
//     copy; a merge adopts it only when the local copy has none.
//
// The max rule is replica maintenance's. Kademlia keeps values alive
// under churn by periodically republishing each stored block to the
// nodes currently closest to its key; that must be idempotent —
// replicas that already hold the block must not double-count its
// weights — so republication merges by per-field maximum instead of
// addition. Counts grow monotonically, so max-merge converges every
// replica to the most complete state it has seen (an anti-entropy
// exchange in the G-Counter style; increments applied to disjoint
// replica sets during a partition are reconciled to the larger side
// rather than summed, an approximation consistent with DHARMA's
// tolerance for approximate weights).
//
// Under either rule counts only grow, so the digest, head-index and
// version upkeep is shared.
func (s *Store) mergeLocked(op persist.Op, key kadid.ID, entries []wire.Entry) {
	blk, ok := s.blocks[key]
	if !ok {
		blk = &block{fields: make(map[string]*storedEntry, len(entries))}
		s.blocks[key] = blk
	}
	add := op == persist.OpAppend
	changed := false
	for i := range entries {
		e := &entries[i]
		se, ok := blk.fields[e.Field]
		if !ok {
			se = &storedEntry{field: e.Field, count: e.Count, pos: -1}
			if add && e.Init > 0 {
				se.count = e.Init
			}
			blk.fields[e.Field] = se
			blk.digest ^= fieldDigest(e.Field, se.count)
			blk.indexEnter(se)
			changed = true
		} else {
			next := max(se.count, e.Count)
			if add {
				next = se.count + e.Count
			}
			if next != se.count {
				blk.digest ^= fieldDigest(e.Field, se.count) ^ fieldDigest(e.Field, next)
				se.count = next
				blk.indexBump(se)
				changed = true
			}
		}
		if len(e.Data) > 0 && (add || len(se.data) == 0) {
			se.data = append([]byte(nil), e.Data...)
			se.author = append([]byte(nil), e.Author...)
			se.sig = append([]byte(nil), e.Sig...)
			changed = true
		}
	}
	if changed {
		blk.version++
	}
}

// indexBump restores the top-index invariant after se's count grew.
// Counts never shrink, so the entry can only move towards the front.
func (b *block) indexBump(se *storedEntry) {
	if se.pos < 0 {
		b.indexEnter(se)
		return
	}
	for se.pos > 0 && storedLess(se, b.top[se.pos-1]) {
		prev := b.top[se.pos-1]
		b.top[se.pos-1], b.top[se.pos] = se, prev
		prev.pos = se.pos
		se.pos--
	}
}

// indexEnter considers an entry that is not part of the head (fresh, or
// previously evicted and now bumped) for inclusion.
func (b *block) indexEnter(se *storedEntry) {
	if len(b.top) >= topIndexCap {
		tail := b.top[len(b.top)-1]
		if !storedLess(se, tail) {
			return // does not beat the current head
		}
		tail.pos = -1
		b.top = b.top[:len(b.top)-1]
	}
	// Binary search for the insertion point, then shift the tail right.
	i := sort.Search(len(b.top), func(i int) bool { return storedLess(se, b.top[i]) })
	b.top = append(b.top, nil)
	copy(b.top[i+1:], b.top[i:])
	b.top[i] = se
	se.pos = i
	for j := i + 1; j < len(b.top); j++ {
		b.top[j].pos = j
	}
}

// Get returns the block under key sorted by descending count (ties
// broken by field name), truncated to topN entries when topN > 0. This
// is the "index side filtering" of the paper: a popular tag's block may
// hold tens of thousands of arcs, far more than fits a UDP payload, so
// the storing node returns only the most relevant ones. The second
// result reports whether the block exists.
//
// A read the block's maintained head covers — a filter of at most
// topIndexCap, or any read of a block with at most topIndexCap fields —
// is served from that head in O(topN) under the store's read lock. A
// wider read copies every field under the lock and sorts the copies
// after releasing it, so writers wait only for the copy.
// Returned entries never alias internal storage — Data/Author/Sig are
// copied on the way out — so the caller owns the result, whose array
// holds exactly the entries returned.
func (s *Store) Get(key kadid.ID, topN int) ([]wire.Entry, bool) {
	return s.getInto(nil, key, topN)
}

// getInto is Get appending into dst: it returns dst extended by the
// entries Get would return, in dst's array when it has room for them,
// so a reader that reuses one dst across reads allocates no entry list.
// When the block does not exist dst comes back unchanged.
func (s *Store) getInto(dst []wire.Entry, key kadid.ID, topN int) ([]wire.Entry, bool) {
	if m := s.metrics; m != nil {
		start := time.Now()
		defer func() {
			m.getLatency.Observe(time.Since(start))
		}()
	}
	s.mu.RLock()
	blk, ok := s.blocks[key]
	if !ok {
		s.mu.RUnlock()
		return dst, false
	}
	n := len(blk.fields)
	if topN > 0 && topN < n {
		n = topN
	}
	if n <= len(blk.top) {
		base := len(dst)
		dst = growEntries(dst, n)[:base+n]
		for i, se := range blk.top[:n] {
			se.fill(&dst[base+i])
		}
		s.mu.RUnlock()
		return dst, true
	}
	all := blk.list(true)
	s.mu.RUnlock()

	slices.SortFunc(all, compareEntries)
	if len(dst) == 0 && cap(dst) < n && n == len(all) {
		return all, true // the sorted copy is exactly the answer
	}
	return append(growEntries(dst, n), all[:n]...), true
}

// growEntries returns es with room for n more entries. A nil es gets an
// array of exactly n, so what Get returns pins nothing beyond itself; a
// reused one grows as append grows it.
func growEntries(es []wire.Entry, n int) []wire.Entry {
	if es == nil {
		return make([]wire.Entry, 0, n)
	}
	return slices.Grow(es, n)
}

// list enumerates the block's fields in map order. With payload set
// each entry carries copies of its Data/Author/Sig (see fill); without,
// entries are count-only.
func (b *block) list(payload bool) []wire.Entry {
	out := make([]wire.Entry, len(b.fields))
	i := 0
	for _, se := range b.fields {
		if payload {
			se.fill(&out[i])
		} else {
			out[i].Field, out[i].Count = se.field, se.count
		}
		i++
	}
	return out
}

// fill writes se into e with copied byte slices, so callers can never
// mutate stored state through a Get result.
func (se *storedEntry) fill(e *wire.Entry) {
	e.Field, e.Count, e.Init = se.field, se.count, 0
	e.Data, e.Author, e.Sig = bytes.Clone(se.data), bytes.Clone(se.author), bytes.Clone(se.sig)
}

// Has reports whether a block exists under key.
func (s *Store) Has(key kadid.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blocks[key]
	return ok
}

// Keys returns the identifiers of all stored blocks in ascending
// order, so maintenance that walks them (anti-entropy, handoff) sends
// its RPCs in the same order on every run of a seeded simulation.
func (s *Store) Keys() []kadid.ID {
	s.mu.RLock()
	out := make([]kadid.ID, 0, len(s.blocks))
	for k := range s.blocks {
		out = append(out, k)
	}
	s.mu.RUnlock()
	slices.SortFunc(out, kadid.Cmp)
	return out
}

// Len returns the number of stored blocks.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// EntryCount returns the total number of fields across all blocks; it
// approximates the node's storage load for the hotspot experiment.
func (s *Store) EntryCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, blk := range s.blocks {
		n += len(blk.fields)
	}
	return n
}
