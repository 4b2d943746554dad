package kademlia

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// Property-style randomized test of the replica-maintenance merge.
// MergeMax must behave as the G-Counter-style join it claims to be:
//
//   - idempotent: replaying any batch changes nothing;
//   - commutative: the final state is independent of the order batches
//     (and entries within them) arrive in;
//   - monotone: no merge ever lowers a field's count;
//
// each checked against a brute-force model (field-wise maximum over all
// entries seen, data adopted first-wins).
func TestMergeMaxProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	fields := []string{"a", "b", "c", "d", "e", "f", "g", "h"}

	randBatch := func() []wire.Entry {
		n := 1 + rng.Intn(6)
		batch := make([]wire.Entry, n)
		for i := range batch {
			e := wire.Entry{
				Field: fields[rng.Intn(len(fields))],
				Count: uint64(rng.Intn(40)),
			}
			if rng.Intn(4) == 0 {
				e.Data = []byte(fmt.Sprintf("d%d", rng.Intn(3)))
			}
			batch[i] = e
		}
		return batch
	}

	snapshot := func(s *Store, key kadid.ID) map[string]uint64 {
		out := make(map[string]uint64)
		es, ok := s.Get(key, 0)
		if !ok {
			return out
		}
		for _, e := range es {
			out[e.Field] = e.Count
		}
		return out
	}

	for trial := 0; trial < 150; trial++ {
		key := kadid.HashString(fmt.Sprintf("prop%d", trial))
		batches := make([][]wire.Entry, 1+rng.Intn(8))
		for i := range batches {
			batches[i] = randBatch()
		}

		// Brute-force model: per-field maximum over every entry of every
		// batch. Within one MergeMax call entries apply sequentially, so
		// duplicates of a field inside a batch also resolve to the max —
		// the model need not distinguish batch boundaries at all.
		model := make(map[string]uint64)
		for _, b := range batches {
			for _, e := range b {
				if e.Count >= model[e.Field] {
					model[e.Field] = e.Count
				}
			}
		}

		// Apply in order, checking monotonicity after every merge.
		s1 := NewStore()
		prev := map[string]uint64{}
		for _, b := range batches {
			s1.MergeMax(context.Background(), key, b)
			cur := snapshot(s1, key)
			for f, c := range prev {
				if cur[f] < c {
					t.Fatalf("trial %d: merge lowered %q: %d -> %d", trial, f, c, cur[f])
				}
			}
			prev = cur
		}
		got := snapshot(s1, key)
		if len(got) != len(model) {
			t.Fatalf("trial %d: %d fields, model has %d", trial, len(got), len(model))
		}
		for f, want := range model {
			if got[f] != want {
				t.Fatalf("trial %d: field %q = %d, model says %d", trial, f, got[f], want)
			}
		}

		// Idempotence: replaying every batch (twice, shuffled) is a no-op.
		for _, i := range rng.Perm(len(batches)) {
			s1.MergeMax(context.Background(), key, batches[i])
			s1.MergeMax(context.Background(), key, batches[i])
		}
		if again := snapshot(s1, key); !mapsEqual(again, got) {
			t.Fatalf("trial %d: replay changed the block: %v -> %v", trial, got, again)
		}

		// Commutativity: a second store receiving the batches in reverse
		// order (and each batch's entries reversed) converges to the
		// same state.
		s2 := NewStore()
		for i := len(batches) - 1; i >= 0; i-- {
			rev := make([]wire.Entry, len(batches[i]))
			for j, e := range batches[i] {
				rev[len(rev)-1-j] = e
			}
			s2.MergeMax(context.Background(), key, rev)
		}
		if other := snapshot(s2, key); !mapsEqual(other, got) {
			t.Fatalf("trial %d: merge order changed the block: %v vs %v", trial, got, other)
		}

		// The maintained top index must agree with the converged counts:
		// a filtered read returns the true maxima in order.
		top, _ := s1.Get(key, 3)
		for i := 1; i < len(top); i++ {
			if compareEntries(top[i], top[i-1]) < 0 {
				t.Fatalf("trial %d: top index out of order: %v", trial, top)
			}
		}
	}
}

// TestDeltaRepairConverges is the property behind delta-based sync (its
// push and pull halves): for random divergent replica pairs, exchanging only the
// deltaEntries each side computes against the other's counts — applied
// via MergeMax — converges both replicas to the field-wise maximum of
// the pair. The exchange must also be idempotent (re-applying a delta
// changes nothing) and commutative (which replica pushes first does not
// matter), because under churn deltas are retried and interleave.
func TestDeltaRepairConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(515151))
	fields := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

	randDivergent := func(key kadid.ID) (sa, sb *Store) {
		sa, sb = NewStore(), NewStore()
		// A shared prefix both replicas saw, then independent suffixes —
		// the shape a partition or missed write leaves behind.
		shared := make([]wire.Entry, 1+rng.Intn(6))
		for i := range shared {
			shared[i] = wire.Entry{Field: fields[rng.Intn(len(fields))], Count: uint64(1 + rng.Intn(40))}
		}
		sa.MergeMax(context.Background(), key, shared)
		sb.MergeMax(context.Background(), key, shared)
		for _, store := range []*Store{sa, sb} {
			for op := 0; op < rng.Intn(5); op++ {
				batch := make([]wire.Entry, 1+rng.Intn(4))
				for i := range batch {
					batch[i] = wire.Entry{Field: fields[rng.Intn(len(fields))], Count: uint64(1 + rng.Intn(80))}
				}
				store.Append(context.Background(), key, batch)
			}
		}
		return sa, sb
	}

	snapshot := func(s *Store, key kadid.ID) map[string]uint64 {
		out := make(map[string]uint64)
		es, ok := s.Get(key, 0)
		if !ok {
			return out
		}
		for _, e := range es {
			out[e.Field] = e.Count
		}
		return out
	}

	exchange := func(from, to *Store, key kadid.ID) []wire.Entry {
		local, _ := from.Get(key, 0)
		remote := snapshot(to, key)
		delta := deltaEntries(local, remote)
		to.MergeMax(context.Background(), key, delta)
		return delta
	}

	for trial := 0; trial < 150; trial++ {
		key := kadid.HashString(fmt.Sprintf("delta%d", trial))
		sa, sb := randDivergent(key)

		// The model: field-wise maximum over both replicas.
		model := snapshot(sa, key)
		for f, c := range snapshot(sb, key) {
			if c > model[f] {
				model[f] = c
			}
		}

		// One exchange in each direction converges both sides.
		deltaAB := exchange(sa, sb, key)
		deltaBA := exchange(sb, sa, key)
		gotA, gotB := snapshot(sa, key), snapshot(sb, key)
		if !mapsEqual(gotA, model) || !mapsEqual(gotB, model) {
			t.Fatalf("trial %d: replicas did not converge to the max:\n a=%v\n b=%v\n model=%v",
				trial, gotA, gotB, model)
		}

		// Idempotence: replaying both deltas changes nothing.
		sb.MergeMax(context.Background(), key, deltaAB)
		sa.MergeMax(context.Background(), key, deltaBA)
		if !mapsEqual(snapshot(sa, key), model) || !mapsEqual(snapshot(sb, key), model) {
			t.Fatalf("trial %d: delta replay moved a converged replica", trial)
		}

		// After convergence the digests agree — the next summary exchange
		// is a match and moves no data (deltas in both directions empty).
		sumA, _ := sa.Summary(key)
		sumB, _ := sb.Summary(key)
		if sumA != sumB {
			t.Fatalf("trial %d: converged replicas summarise differently: %+v vs %+v", trial, sumA, sumB)
		}
		la, _ := sa.Get(key, 0)
		if d := deltaEntries(la, snapshot(sb, key)); len(d) != 0 {
			t.Fatalf("trial %d: converged replicas still produce a delta: %v", trial, d)
		}

		// Commutativity: a fresh pair exchanging in the opposite order
		// converges to the same state.
		sc, sd := randDivergent(kadid.HashString(fmt.Sprintf("delta%d-swap", trial)))
		key2 := kadid.HashString(fmt.Sprintf("delta%d-swap", trial))
		model2 := snapshot(sc, key2)
		for f, c := range snapshot(sd, key2) {
			if c > model2[f] {
				model2[f] = c
			}
		}
		exchange(sd, sc, key2) // B->A first this time
		exchange(sc, sd, key2)
		if !mapsEqual(snapshot(sc, key2), model2) || !mapsEqual(snapshot(sd, key2), model2) {
			t.Fatalf("trial %d: reversed exchange order did not converge", trial)
		}
	}
}

func mapsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestMergeEntriesMaxLargeReplicas merges two shuffled replicas of a
// 20,000-arc block, as an unfiltered read of a hot tag whose replicas
// diverged does, so mergeReplies takes its max-merge. The result
// must hold the field-wise maximum in block order: count descending,
// ties by field ascending. Counts are drawn from a small range so most
// of the order comes from the tie-break.
func TestMergeEntriesMaxLargeReplicas(t *testing.T) {
	const arcs = 20000
	rng := rand.New(rand.NewSource(7))
	a := make([]wire.Entry, arcs)
	b := make([]wire.Entry, arcs)
	want := make(map[string]uint64, arcs)
	for i := range a {
		f := fmt.Sprintf("tag-%05d", i)
		ca, cb := uint64(1+rng.Intn(50)), uint64(1+rng.Intn(50))
		a[i] = wire.Entry{Field: f, Count: ca}
		b[i] = wire.Entry{Field: f, Count: cb}
		want[f] = max(ca, cb)
	}
	rng.Shuffle(arcs, func(i, j int) { a[i], a[j] = a[j], a[i] })
	rng.Shuffle(arcs, func(i, j int) { b[i], b[j] = b[j], b[i] })

	start := time.Now()
	got, merged := mergeReplies([][]wire.Entry{a, b}, 0, map[string]struct{}{})
	if !merged {
		t.Fatal("shuffled replicas were not max-merged")
	}
	t.Logf("merged 2 x %d entries in %v", arcs, time.Since(start))

	if len(got) != arcs {
		t.Fatalf("merged %d entries, want %d", len(got), arcs)
	}
	for i, e := range got {
		if e.Count != want[e.Field] {
			t.Fatalf("entry %d: %s count %d, want max %d", i, e.Field, e.Count, want[e.Field])
		}
		if i == 0 {
			continue
		}
		prev := got[i-1]
		if prev.Count < e.Count || (prev.Count == e.Count && prev.Field >= e.Field) {
			t.Fatalf("entries %d,%d out of block order: %+v then %+v", i-1, i, prev, e)
		}
	}
}

// oldMergeMax and oldSortedEntries are the value read's merge before
// mergeReplies, kept verbatim as TestMergeRepliesMatchesMaxMerge's
// oracle.
func oldMergeMax(m map[string]wire.Entry, es []wire.Entry) {
	for _, e := range es {
		if cur, ok := m[e.Field]; !ok || e.Count > cur.Count {
			m[e.Field] = e
		}
	}
}

func oldSortedEntries(m map[string]wire.Entry) []wire.Entry {
	out := make([]wire.Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	slices.SortFunc(out, compareEntries)
	return out
}

// oldMerge composes the oracle as a read did: the final wave's VALUE
// replies max-merged, sorted and truncated to topN, then the reader's
// own replica, when it held one, max-merged into that and truncated
// again.
func oldMerge(remote [][]wire.Entry, local []wire.Entry, topN int) []wire.Entry {
	truncate := func(es []wire.Entry) []wire.Entry {
		if topN > 0 && len(es) > topN {
			return es[:topN]
		}
		return es
	}
	var out []wire.Entry
	if len(remote) > 0 {
		m := make(map[string]wire.Entry)
		for _, r := range remote {
			oldMergeMax(m, r)
		}
		out = truncate(oldSortedEntries(m))
	}
	if local != nil {
		m := make(map[string]wire.Entry, len(out)+len(local))
		oldMergeMax(m, out)
		oldMergeMax(m, local)
		out = truncate(oldSortedEntries(m))
	}
	return out
}

// TestMergeRepliesMatchesMaxMerge checks mergeReplies against the old
// map-and-sort merge on random replies: it must return the same entries,
// Data included, in the same order, in a slice that shares no array
// with any reply, and it must report a max-merge exactly when the
// replies were not the agreeing, ordered, duplicate-free kind.
func TestMergeRepliesMatchesMaxMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4747))
	const (
		agreeing = iota
		stale
		missingTail
		outOfOrder
		duplicated
		sameCountsOtherData
		cases
	)
	names := []string{"agreeing", "stale replica", "missing tail", "out of order",
		"duplicated field", "equal counts, other Data"}
	fields := make(map[string]struct{})
	for trial := 0; trial < 3000; trial++ {
		kind := trial % cases
		// The block every up-to-date replica holds, in block order; counts
		// tie often so the field tie-break matters.
		size := 1 + rng.Intn(40)
		block := make([]wire.Entry, size)
		for i, f := range rng.Perm(60)[:size] {
			block[i] = wire.Entry{Field: fmt.Sprintf("f%02d", f), Count: uint64(2 + rng.Intn(8))}
			if rng.Intn(3) == 0 {
				block[i].Data = []byte(fmt.Sprintf("uri-%d", f))
			}
		}
		slices.SortFunc(block, compareEntries)
		topN := 0
		if rng.Intn(2) == 0 {
			topN = 1 + rng.Intn(size+5) // truncating or not
		}
		// view is what a replica holding es answers: its top-topN.
		view := func(es []wire.Entry) []wire.Entry {
			es = slices.Clone(es)
			if topN > 0 && len(es) > topN {
				es = es[:topN]
			}
			return es
		}

		replies := make([][]wire.Entry, 1+rng.Intn(4))
		for i := range replies {
			replies[i] = view(block)
		}
		odd := rng.Intn(len(replies))
		switch kind {
		case stale:
			older := slices.Clone(block)
			for i := range older {
				if rng.Intn(2) == 0 {
					older[i].Count -= uint64(1 + rng.Intn(2))
				}
			}
			slices.SortFunc(older, compareEntries)
			replies[odd] = view(older)
		case missingTail:
			if r := replies[odd]; len(r) > 0 {
				replies[odd] = r[:rng.Intn(len(r))]
			}
		case outOfOrder:
			r := replies[odd]
			rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
		case duplicated:
			// Still strictly in block order, and the same in every reply,
			// so only the duplicate check tells it apart.
			last := replies[0][len(replies[0])-1]
			dup := wire.Entry{Field: replies[0][rng.Intn(len(replies[0]))].Field, Count: last.Count - 1}
			for i := range replies {
				replies[i] = append(replies[i], dup)
			}
		case sameCountsOtherData:
			for i, r := range replies {
				for j := range r {
					r[j].Data = []byte(fmt.Sprintf("reply-%d", i))
				}
			}
		}
		remote, local := replies, []wire.Entry(nil)
		if len(replies) > 1 && rng.Intn(2) == 0 {
			remote, local = replies[:len(replies)-1], replies[len(replies)-1]
		}
		want := oldMerge(remote, local, topN)

		got, merged := mergeReplies(replies, topN, fields)
		name := names[kind]
		if len(fields) != 0 {
			t.Fatalf("trial %d (%s): the duplicate set was left with %d fields", trial, name, len(fields))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (%s): %d entries, the old merge gives %d", trial, name, len(got), len(want))
		}
		for i := range got {
			if got[i].Field != want[i].Field || got[i].Count != want[i].Count || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("trial %d (%s): entry %d = %s/%d/%q, the old merge gives %s/%d/%q", trial, name, i,
					got[i].Field, got[i].Count, got[i].Data, want[i].Field, want[i].Count, want[i].Data)
			}
		}
		for _, r := range replies {
			if len(got) > 0 && len(r) > 0 && &got[0] == &r[0] {
				t.Fatalf("trial %d (%s): the answer is a view of a reply", trial, name)
			}
		}
		disagreed := false
		for _, r := range replies[1:] {
			disagreed = disagreed || len(r) != len(replies[0])
			for i := 0; !disagreed && i < len(r); i++ {
				disagreed = r[i].Field != replies[0][i].Field || r[i].Count != replies[0][i].Count
			}
		}
		wantMerged := disagreed || kind == outOfOrder && odd == 0 || kind == duplicated
		if kind == outOfOrder && odd == 0 && slices.IsSortedFunc(replies[0], compareEntries) {
			wantMerged = disagreed // the shuffle left it in order
		}
		if merged != wantMerged {
			t.Fatalf("trial %d (%s): merged = %v, want %v", trial, name, merged, wantMerged)
		}
	}
}
