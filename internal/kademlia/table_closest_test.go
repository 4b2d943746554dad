package kademlia

import (
	"fmt"
	"math/rand"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// TestClosestMatchesFullScan is the equivalence property the
// expanding-ring walk is allowed to exist under: for every table fill
// level from a single contact to fully saturated buckets, and for
// targets both random and adversarial (self, near-self, a table
// member), ClosestInto returns exactly the same contacts in exactly the
// same order as the retained full-scan-and-sort reference.
func TestClosestMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	self := kadid.Random(rng)

	for _, k := range []int{1, 4, 20} {
		for _, fill := range []int{1, 2, 5, 17, 60, 200, 1000, 5000} {
			tab := NewTable(self, k, nil)
			inserted := make([]wire.Contact, 0, fill)
			for i := 0; i < fill; i++ {
				c := wire.Contact{ID: kadid.Random(rng), Addr: fmt.Sprintf("n-%d", i)}
				tab.Update(c)
				inserted = append(inserted, c)
			}
			targets := []kadid.ID{
				self,
				kadid.Random(rng),
				kadid.Random(rng),
				inserted[rng.Intn(len(inserted))].ID, // exact member
				kadid.RandomInBucket(self, kadid.Bits-3, rng), // near-self neighbourhood
				kadid.RandomInBucket(self, 0, rng),            // farthest half
			}
			for _, target := range targets {
				for _, n := range []int{1, 3, k, 2*k + 1, 10 * k} {
					want := tab.closestFullScan(target, n)
					got := tab.ClosestInto(target, n, nil)
					if len(got) != len(want) {
						t.Fatalf("k=%d fill=%d n=%d: ring walk returned %d contacts, full scan %d",
							k, fill, n, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("k=%d fill=%d n=%d: position %d differs: ring %v (dist %v) vs scan %v (dist %v)",
								k, fill, n, i, got[i].ID, kadid.Distance(got[i].ID, target), want[i].ID, kadid.Distance(want[i].ID, target))
						}
					}
				}
			}
		}
	}
}

// TestClosestIntoReusesBuffer pins the zero-allocation contract: a
// buffer with sufficient capacity is reused, not replaced.
func TestClosestIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := NewTable(kadid.Random(rng), 8, nil)
	for i := 0; i < 100; i++ {
		tab.Update(wire.Contact{ID: kadid.Random(rng), Addr: "a"})
	}
	buf := make([]wire.Contact, 0, 64)
	out := tab.ClosestInto(kadid.Random(rng), 16, buf)
	if len(out) != 16 {
		t.Fatalf("got %d contacts, want 16", len(out))
	}
	if &out[0] != &buf[0:1][0] {
		t.Fatal("ClosestInto allocated a new backing array despite sufficient capacity")
	}
}

// TestTableCountBookkeeping pins the running count/occupancy updates
// that pre-size Contacts and NonEmptyBuckets against the ground truth.
func TestTableCountBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := NewTable(kadid.Random(rng), 4, nil)
	var ids []kadid.ID
	for i := 0; i < 500; i++ {
		id := kadid.Random(rng)
		tab.Update(wire.Contact{ID: id, Addr: "a"})
		ids = append(ids, id)
		if i%3 == 0 && len(ids) > 1 {
			victim := ids[rng.Intn(len(ids))]
			tab.Remove(victim)
		}
		// Re-update a known contact: move-to-tail must not change counts.
		tab.Update(wire.Contact{ID: ids[rng.Intn(len(ids))], Addr: "b"})

		if got, want := tab.Len(), len(tab.Contacts()); got != want {
			t.Fatalf("step %d: Len() = %d but Contacts() has %d", i, got, want)
		}
		nonEmpty := tab.NonEmptyBuckets()
		seen := map[int]bool{}
		for _, c := range tab.Contacts() {
			seen[kadid.BucketIndex(tab.self, c.ID)] = true
		}
		if len(nonEmpty) != len(seen) {
			t.Fatalf("step %d: NonEmptyBuckets() = %d buckets, ground truth %d", i, len(nonEmpty), len(seen))
		}
	}
}

// fillTable populates a table with contacts until it holds roughly
// `want` of them (saturated buckets silently drop newcomers when ping
// is nil-evict; here ping==nil so oldest is evicted — the fill still
// converges because insertions replace rather than grow).
func fillTable(tab *Table, want int, rng *rand.Rand) {
	for i := 0; tab.Len() < want && i < want*50; i++ {
		tab.Update(wire.Contact{ID: kadid.Random(rng), Addr: "bench"})
	}
}

// BenchmarkTableClosest is the gated hot path of every lookup step:
// k-closest selection against a sparse table (a fresh node) and a full
// one (a long-lived node at scale). Both variants must report 0
// allocs/op — the caller-reusable buffer is the point of the refactor.
// scripts/alloc_gate.sh holds this to the budget in
// scripts/alloc_budgets.txt.
func BenchmarkTableClosest(b *testing.B) {
	for _, tc := range []struct {
		name string
		fill int
	}{
		{"sparse", 30},
		{"full", 2000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tab := NewTable(kadid.Random(rng), 20, nil)
			fillTable(tab, tc.fill, rng)
			targets := make([]kadid.ID, 256)
			for i := range targets {
				targets[i] = kadid.Random(rng)
			}
			buf := make([]wire.Contact, 0, 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = tab.ClosestInto(targets[i%len(targets)], 20, buf)
				if len(buf) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkTableClosestFullScanBaseline is the pre-refactor algorithm
// on the same full table, for the README comparison.
func BenchmarkTableClosestFullScanBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tab := NewTable(kadid.Random(rng), 20, nil)
	fillTable(tab, 2000, rng)
	targets := make([]kadid.ID, 256)
	for i := range targets {
		targets[i] = kadid.Random(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := tab.closestFullScan(targets[i%len(targets)], 20); len(out) == 0 {
			b.Fatal("empty result")
		}
	}
}

// closestFullScan is the reference implementation ClosestInto is tested
// against: copy every bucket, sort the union, truncate. Kept verbatim
// (not for production use) so the equivalence property — the ring walk
// returns exactly the nearest-first prefix of the full scan — stays
// checkable as both sides evolve.
func (t *Table) closestFullScan(target kadid.ID, n int) []wire.Contact {
	t.mu.Lock()
	all := make([]wire.Contact, 0, 2*n)
	for i := range t.buckets {
		all = append(all, t.buckets[i]...)
	}
	t.mu.Unlock()

	sortContactsByDistance(all, target)
	if len(all) > n {
		all = all[:n]
	}
	return all
}
