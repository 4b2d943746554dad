package kademlia

import (
	"fmt"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

func mkContact(s string) wire.Contact {
	return wire.Contact{ID: kadid.HashString(s), Addr: s}
}

func TestTableUpdateAndContains(t *testing.T) {
	self := kadid.HashString("self")
	tab := NewTable(self, 4, nil)

	c := mkContact("a")
	tab.Update(c)
	if !tab.Contains(c.ID) {
		t.Fatal("contact not inserted")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	// Self and zero IDs are never inserted.
	tab.Update(wire.Contact{ID: self, Addr: "self"})
	tab.Update(wire.Contact{})
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after inserting self/zero, want 1", tab.Len())
	}
}

func TestTableUpdateRefreshesAddr(t *testing.T) {
	tab := NewTable(kadid.HashString("self"), 4, nil)
	id := kadid.HashString("a")
	tab.Update(wire.Contact{ID: id, Addr: "old"})
	tab.Update(wire.Contact{ID: id, Addr: "new"})
	cs := tab.Closest(id, 1)
	if len(cs) != 1 || cs[0].Addr != "new" {
		t.Fatalf("got %+v, want refreshed address", cs)
	}
	if tab.Len() != 1 {
		t.Fatalf("duplicate insert: Len = %d", tab.Len())
	}
}

// bucketFiller generates contacts that all land in the same bucket of
// self, so full-bucket logic can be exercised deterministically.
func bucketFiller(t *testing.T, self kadid.ID, bucket, n int) []wire.Contact {
	t.Helper()
	rng := newRand(99)
	out := make([]wire.Contact, 0, n)
	seen := map[kadid.ID]bool{}
	for len(out) < n {
		id := kadid.RandomInBucket(self, bucket, rng)
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, wire.Contact{ID: id, Addr: fmt.Sprintf("c%d", len(out))})
	}
	return out
}

// A newcomer that meets a full bucket waits in the replacement list: it
// displaces nobody, however old.
func TestTableKeepsAliveOldest(t *testing.T) {
	self := kadid.HashString("self")
	tab := NewTable(self, 3, nil)

	cs := bucketFiller(t, self, 5, 5)
	for _, c := range cs {
		tab.Update(c)
	}
	for _, c := range cs[:3] {
		if !tab.Contains(c.ID) {
			t.Fatalf("%s displaced by a newcomer", c.Addr)
		}
	}
	if tab.Contains(cs[3].ID) || tab.Contains(cs[4].ID) || tab.Len() != 3 {
		t.Fatalf("newcomer entered a full bucket (Len = %d)", tab.Len())
	}
}

// When a member of a full bucket dies (Remove, after a failed exchange)
// the most recently seen replacement takes its slot; the others keep
// waiting until the replacements run out.
func TestTableEvictsDeadOldest(t *testing.T) {
	self := kadid.HashString("self")
	tab := NewTable(self, 3, nil)
	cs := bucketFiller(t, self, 5, 5)
	for _, c := range cs {
		tab.Update(c)
	}

	tab.Remove(cs[0].ID)
	if tab.Contains(cs[0].ID) {
		t.Fatal("dead oldest contact kept")
	}
	if !tab.Contains(cs[4].ID) || tab.Contains(cs[3].ID) || tab.Len() != 3 {
		t.Fatalf("promotion: want c4 in, c3 waiting, Len 3; got c4=%v c3=%v Len=%d",
			tab.Contains(cs[4].ID), tab.Contains(cs[3].ID), tab.Len())
	}
	tab.Remove(cs[1].ID)
	if !tab.Contains(cs[3].ID) || tab.Len() != 3 {
		t.Fatal("second replacement not promoted")
	}
	tab.Remove(cs[2].ID)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d after draining replacements, want 2", tab.Len())
	}
}

// The replacement list is bounded by k, deduplicated by ID, ordered by
// recency, and a replacement that fails an exchange leaves it.
func TestTableReplacementListBounded(t *testing.T) {
	self := kadid.HashString("self")
	tab := NewTable(self, 2, nil)
	cs := bucketFiller(t, self, 7, 6)
	tab.Update(cs[0])
	tab.Update(cs[1])
	for _, c := range cs[2:6] { // four newcomers, room for two
		tab.Update(c)
	}
	tab.Update(wire.Contact{ID: cs[4].ID, Addr: "moved"}) // seen again: most recent, new address
	if got := len(tab.spares[7]); got != 2 {
		t.Fatalf("replacement list holds %d, want k = 2", got)
	}
	tab.Remove(cs[5].ID) // a waiting replacement turned out dead
	tab.Remove(cs[0].ID)
	if got := tab.Closest(cs[4].ID, 1); len(got) != 1 || got[0].Addr != "moved" {
		t.Fatalf("promoted %+v, want the refreshed c4", got)
	}
	if tab.Contains(cs[5].ID) || tab.Contains(cs[2].ID) || tab.Contains(cs[3].ID) {
		t.Fatal("a dead or displaced replacement was promoted")
	}
}

// TestTableInvariantsUnderRandomOps drives a seeded random
// Update/Remove sequence over a small ID population (so buckets fill,
// overflow and drain) and checks every structural invariant after every
// step.
func TestTableInvariantsUnderRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := newRand(seed)
		self := kadid.Random(rng)
		const k = 3
		tab := NewTable(self, k, nil)
		pop := make([]wire.Contact, 0, 121)
		for b := 0; b < 6; b++ { // six buckets, 20 candidates each: 6-7x oversubscribed
			for i := 0; i < 20; i++ {
				id := kadid.RandomInBucket(self, b, rng)
				pop = append(pop, wire.Contact{ID: id, Addr: fmt.Sprintf("p%d", len(pop))})
			}
		}
		pop = append(pop, wire.Contact{ID: self, Addr: "self"})
		for step := 0; step < 4000; step++ {
			c := pop[rng.Intn(len(pop))]
			if rng.Intn(3) == 0 {
				tab.Remove(c.ID)
			} else {
				tab.Update(c)
			}
			checkTableInvariants(t, tab, seed, step)
			target := pop[rng.Intn(len(pop))].ID
			n := 1 + rng.Intn(3*k)
			want, got := tab.closestFullScan(target, n), tab.ClosestInto(target, n, nil)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: ClosestInto %d contacts, full scan %d", seed, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: ClosestInto[%d] = %v, full scan %v", seed, step, i, got[i], want[i])
				}
			}
		}
	}
}

func checkTableInvariants(t *testing.T, tab *Table, seed int64, step int) {
	t.Helper()
	total, top := 0, 0
	var occupied []int
	for i := range tab.buckets {
		b, sp := tab.buckets[i], tab.spares[i]
		if len(b) > tab.k || len(sp) > tab.k {
			t.Fatalf("seed %d step %d: bucket %d holds %d (+%d waiting), k = %d", seed, step, i, len(b), len(sp), tab.k)
		}
		if len(b) < tab.k && len(sp) > 0 {
			t.Fatalf("seed %d step %d: bucket %d has room yet %d replacements wait", seed, step, i, len(sp))
		}
		seen := map[kadid.ID]bool{}
		for _, c := range append(append([]wire.Contact(nil), b...), sp...) {
			if c.ID == tab.self || seen[c.ID] || kadid.BucketIndex(tab.self, c.ID) != i {
				t.Fatalf("seed %d step %d: bucket %d holds self, a duplicate or a stray: %v", seed, step, i, c)
			}
			seen[c.ID] = true
		}
		total += len(b)
		if len(b) > 0 {
			occupied = append(occupied, i)
			top = i + 1
		}
	}
	if tab.Len() != total || tab.top != top {
		t.Fatalf("seed %d step %d: Len = %d, top = %d; buckets say %d, %d", seed, step, tab.Len(), tab.top, total, top)
	}
	if got := tab.NonEmptyBuckets(); fmt.Sprint(got) != fmt.Sprint(occupied) {
		t.Fatalf("seed %d step %d: NonEmptyBuckets = %v, want %v", seed, step, got, occupied)
	}
}

func TestTableRemove(t *testing.T) {
	tab := NewTable(kadid.HashString("self"), 4, nil)
	c := mkContact("a")
	tab.Update(c)
	tab.Remove(c.ID)
	if tab.Contains(c.ID) {
		t.Fatal("Remove did not delete contact")
	}
	tab.Remove(c.ID) // removing twice is a no-op
}

func TestTableClosestSorted(t *testing.T) {
	self := kadid.HashString("self")
	tab := NewTable(self, 20, nil)
	for i := 0; i < 40; i++ {
		tab.Update(mkContact(fmt.Sprintf("n%d", i)))
	}
	target := kadid.HashString("target")
	cs := tab.Closest(target, 10)
	if len(cs) != 10 {
		t.Fatalf("got %d contacts, want 10", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if kadid.Closer(cs[i].ID, cs[i-1].ID, target) {
			t.Fatal("Closest result not sorted by distance")
		}
	}
}

func TestTableNonEmptyBuckets(t *testing.T) {
	self := kadid.HashString("self")
	tab := NewTable(self, 4, nil)
	if got := tab.NonEmptyBuckets(); len(got) != 0 {
		t.Fatalf("empty table has non-empty buckets: %v", got)
	}
	cs := bucketFiller(t, self, 3, 1)
	tab.Update(cs[0])
	got := tab.NonEmptyBuckets()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("NonEmptyBuckets = %v, want [3]", got)
	}
}

func TestNewTablePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewTable(kadid.ID{}, 0, nil)
}
