package kademlia

import (
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// Anti-entropy block summaries.
//
// Every block carries a 64-bit digest: the XOR fold of
// fieldDigest(field, count) over all of its fields. XOR makes the fold
// order-independent (appends and merges commute, so replicas that
// converged through different histories fold to the same value) and
// incrementally updatable: when a field's count moves from old to new,
// the mutation path XORs out fieldDigest(field, old) and XORs in
// fieldDigest(field, new) under the store lock it already holds, so
// Summary is O(1) and never rescans the block.
//
// The digest covers the weight map only — (field, count) pairs, not
// Data/Author/Sig. Blobs are immutable once written (Append replaces,
// MergeMax adopts-when-empty) and always travel with the entry that
// created the field, so a weight-map match implies the replicas saw the
// same field set; a blob-only divergence heals on the next count bump.
//
// False positives: two differing blocks collide when the XOR of the
// differing pair hashes cancels. With 64-bit hashes mixed through a
// splitmix64 finalizer that is ~2^-64 per comparison — at one summary
// exchange per block per maintenance round, a fleet doing a billion
// comparisons a day expects one silent skip every ~50 million years,
// and the next count bump on either replica breaks the collision.
// TestDigestCollisionBound documents this bound.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fieldDigest hashes one (field, count) pair. FNV-1a over the field
// bytes and the count's little-endian bytes gives per-pair diffusion;
// the splitmix64 finalizer breaks FNV's near-linearity so structured
// field/count families do not produce correlated XOR folds.
func fieldDigest(field string, count uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(field); i++ {
		h ^= uint64(field[i])
		h *= fnvPrime64
	}
	for i := 0; i < 8; i++ {
		h ^= (count >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Summary returns the block's anti-entropy summary (field count +
// weight-map digest). A missing block reports ok=false; its summary is
// the zero value, which is also what replicas exchange for "I have
// nothing".
func (s *Store) Summary(key kadid.ID) (wire.BlockSummary, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	blk, ok := s.blocks[key]
	if !ok {
		return wire.BlockSummary{}, false
	}
	return wire.BlockSummary{Fields: uint64(len(blk.fields)), Digest: blk.digest}, true
}

// Version returns the block's mutation counter. It only moves forward,
// and only when a mutation changed the block (idempotent replays of
// already-merged state do not bump it), so an unchanged version between
// two observations means the block is exactly as it was.
func (s *Store) Version(key kadid.ID) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	blk, ok := s.blocks[key]
	if !ok {
		return 0, false
	}
	return blk.version, true
}

// Counts returns the block's weight map as count-only entries (no
// Data/Author/Sig copies, no sorting) — the cheap representation a
// summary mismatch reply carries so the other replica can compute a
// delta. Order is unspecified.
func (s *Store) Counts(key kadid.ID) ([]wire.Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	blk, ok := s.blocks[key]
	if !ok {
		return nil, false
	}
	out := make([]wire.Entry, 0, len(blk.fields))
	for _, se := range blk.fields {
		out = append(out, wire.Entry{Field: se.field, Count: se.count})
	}
	return out, true
}
