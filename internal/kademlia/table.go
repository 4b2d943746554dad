package kademlia

import (
	"sync"
	"sync/atomic"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// Table is a Kademlia routing table: one bucket per distance prefix,
// each holding at most k contacts ordered from least to most recently
// seen, plus a replacement list of at most k more per bucket (Kademlia
// §4.1). It performs no I/O and is safe for concurrent use.
type Table struct {
	self kadid.ID
	k    int

	mu      sync.Mutex
	buckets [kadid.Bits][]wire.Contact
	// spares[i] holds contacts seen while buckets[i] was full, most
	// recently seen last, no ID twice and none that is in the bucket.
	// A bucket with room has no spares: Remove refills from them.
	spares [kadid.Bits][]wire.Contact
	// count, occupied and top are maintained incrementally on
	// Update/Remove so Len, Contacts and NonEmptyBuckets can pre-size
	// their outputs and ClosestInto can skip the empty deep buckets.
	count    int // total contacts across all buckets
	occupied int // buckets holding at least one contact
	top      int // 1 + index of the highest non-empty bucket
	// epoch counts changes to the buckets' membership (an admission or
	// a removal) and to their contacts' addresses, plus every newEpoch;
	// see Epoch.
	epoch atomic.Uint64
}

// NewTable creates a routing table for the node with identifier self.
// The third parameter, once a liveness probe, is ignored — the table
// never calls out. It survives only because the frozen benchmark module
// passes nil there (ROADMAP item 9 tracks dropping it).
func NewTable(self kadid.ID, k int, _ func(wire.Contact) bool) *Table {
	if k <= 0 {
		panic("kademlia: bucket size must be positive")
	}
	return &Table{self: self, k: k}
}

// contactIndex returns the position of the contact with identifier id in
// list, or -1.
func contactIndex(list []wire.Contact, id kadid.ID) int {
	for i := range list {
		if list[i].ID == id {
			return i
		}
	}
	return -1
}

// touch moves the contact with c's ID to the tail of list (most
// recently seen), refreshing its address, and reports whether it was
// there.
func touch(list []wire.Contact, c wire.Contact) bool {
	i := contactIndex(list, c.ID)
	if i < 0 {
		return false
	}
	copy(list[i:], list[i+1:])
	list[len(list)-1] = c
	return true
}

// Update records that contact c was just seen. A known contact moves to
// the most-recently-seen position; a new contact fills spare bucket
// capacity; when the bucket is full the newcomer waits in the bucket's
// replacement list (displacing the stalest replacement when that is
// full too) until Remove frees a slot. Live contacts are therefore
// never displaced by new ones, and a message costs no probe: dead
// contacts leave through Remove, called for a failed exchange or by
// EvictDead's sweep.
func (t *Table) Update(c wire.Contact) {
	if c.ID == t.self || c.ID.IsZero() {
		return
	}
	idx := kadid.BucketIndex(t.self, c.ID)

	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buckets[idx]
	if i := contactIndex(b, c.ID); i >= 0 {
		if b[i].Addr != c.Addr {
			t.epoch.Add(1) // a known peer at a new address is a routing change
		}
		touch(b, c)
		return
	}
	if len(b) < t.k {
		if len(b) == 0 {
			t.occupied++
			t.top = max(t.top, idx+1)
		}
		t.count++
		t.buckets[idx] = append(b, c)
		t.epoch.Add(1)
		return
	}
	sp := t.spares[idx]
	if touch(sp, c) {
		return
	}
	if len(sp) == t.k {
		copy(sp, sp[1:])
		sp = sp[:t.k-1]
	}
	t.spares[idx] = append(sp, c)
}

// Remove deletes a contact, typically after it failed to answer an RPC,
// and promotes the bucket's most recently seen replacement into the
// freed slot.
func (t *Table) Remove(id kadid.ID) {
	if id == t.self {
		return
	}
	idx := kadid.BucketIndex(t.self, id)
	t.mu.Lock()
	defer t.mu.Unlock()
	b, sp := t.buckets[idx], t.spares[idx]
	if i := contactIndex(sp, id); i >= 0 {
		t.spares[idx] = append(sp[:i], sp[i+1:]...)
		return
	}
	i := contactIndex(b, id)
	if i < 0 {
		return
	}
	b = append(b[:i], b[i+1:]...)
	t.epoch.Add(1)
	if last := len(sp) - 1; last >= 0 {
		b = append(b, sp[last])
		t.spares[idx] = sp[:last]
	} else {
		t.count--
	}
	t.buckets[idx] = b
	if len(b) == 0 {
		t.occupied--
		for t.top > 0 && len(t.buckets[t.top-1]) == 0 {
			t.top--
		}
	}
}

// Epoch returns the table's routing epoch. It advances whenever a
// contact enters or leaves a bucket or a bucket's contact changes
// address (not the replacement lists, which no lookup reads) and at
// every newEpoch, so a result derived from the
// table — a cached replica set — is current while the epoch it was
// derived at still is.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// newEpoch advances the epoch without a membership change.
func (t *Table) newEpoch() { t.epoch.Add(1) }

// Closest returns up to n known contacts sorted by ascending XOR
// distance from target. It allocates the result; hot paths that can
// reuse a buffer across calls should prefer ClosestInto.
func (t *Table) Closest(target kadid.ID, n int) []wire.Contact {
	return t.ClosestInto(target, n, nil)
}

// ClosestInto appends up to n contacts, sorted by ascending XOR distance
// from target, into buf (which is truncated first and reused when its
// capacity suffices) and returns the result.
//
// Instead of copying every bucket and sorting the union — O(total
// contacts) copy + quadratic sort per lookup step — the walk visits
// buckets in exact nearest-first order and stops as soon as n contacts
// are on hand. The order comes from the XOR metric itself: with
// D = self XOR target, every contact in bucket i (common prefix length
// exactly i with self) has distance-to-target in a range determined by
// its first i+1 bits, and those ranges are pairwise disjoint. Comparing
// two buckets a < b, bucket a's range is nearer iff D's bit a is set.
// Hence exact nearest-first bucket order is: indices whose D-bit is 1
// in ascending order (the target-side branches, nearest first), then
// indices whose D-bit is 0 in descending order. Only the contacts
// gathered — at most n plus one bucket's worth — are sorted, so the
// cost per call is O(visited buckets + (n+k)·k) instead of growing with
// table population. Buckets above the highest occupied one (t.top) are
// empty and skipped: a table of n contacts occupies ~log2(n) of the 160.
func (t *Table) ClosestInto(target kadid.ID, n int, buf []wire.Contact) []wire.Contact {
	out := buf[:0]
	if n <= 0 {
		return out
	}
	d := kadid.Distance(t.self, target)

	t.mu.Lock()
	// Target-side branches: D-bit set, ascending index.
	for i := 0; i < t.top && len(out) < n; i++ {
		if d.Bit(i) {
			out = append(out, t.buckets[i]...)
		}
	}
	// Self-side branches: D-bit clear, descending index (nearest last
	// buckets hold the longest shared prefixes with self — and therefore
	// with target on every bit where the two agree).
	for i := t.top - 1; i >= 0 && len(out) < n; i-- {
		if !d.Bit(i) {
			out = append(out, t.buckets[i]...)
		}
	}
	t.mu.Unlock()

	sortContactsByDistance(out, target)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Len returns the total number of contacts in the table.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Contains reports whether the table currently holds id.
func (t *Table) Contains(id kadid.ID) bool {
	if id == t.self {
		return false
	}
	idx := kadid.BucketIndex(t.self, id)
	t.mu.Lock()
	defer t.mu.Unlock()
	return contactIndex(t.buckets[idx], id) >= 0
}

// Contacts returns every contact currently in the table, in bucket
// order. EvictDead's dead-contact sweep pings this list. The
// output is pre-sized from the running count, so one allocation covers
// the whole sweep.
func (t *Table) Contacts() []wire.Contact {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]wire.Contact, 0, t.count)
	for i := range t.buckets {
		out = append(out, t.buckets[i]...)
	}
	return out
}

// NonEmptyBuckets returns the indices of buckets that hold at least one
// contact; used by bucket refresh. Pre-sized from the running occupancy
// count.
func (t *Table) NonEmptyBuckets() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, t.occupied)
	for i := range t.buckets {
		if len(t.buckets[i]) > 0 {
			out = append(out, i)
		}
	}
	return out
}

func sortContactsByDistance(cs []wire.Contact, target kadid.ID) {
	// Insertion sort: candidate lists are short (k to a few k).
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && kadid.Closer(cs[j].ID, cs[j-1].ID, target); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
