package kademlia

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

func TestStoreAppendAccumulates(t *testing.T) {
	s := NewStore()
	key := kadid.HashString("rock|3")
	s.Append(context.Background(), key, []wire.Entry{{Field: "pop", Count: 1}})
	s.Append(context.Background(), key, []wire.Entry{{Field: "pop", Count: 2}, {Field: "indie", Count: 1}})

	es, ok := s.Get(key, 0)
	if !ok {
		t.Fatal("block missing")
	}
	if len(es) != 2 {
		t.Fatalf("got %d entries, want 2", len(es))
	}
	if es[0].Field != "pop" || es[0].Count != 3 {
		t.Fatalf("entry 0 = %+v, want pop/3", es[0])
	}
	if es[1].Field != "indie" || es[1].Count != 1 {
		t.Fatalf("entry 1 = %+v, want indie/1", es[1])
	}
}

func TestStoreAppendInitSemantics(t *testing.T) {
	// Init applies only when the field is absent (Approximation B's
	// conditional create); existing fields add Count as usual.
	s := NewStore()
	key := kadid.HashString("k")
	s.Append(context.Background(), key, []wire.Entry{{Field: "a", Count: 7, Init: 1}})
	es, _ := s.Get(key, 0)
	if es[0].Count != 1 {
		t.Fatalf("absent field with Init: count = %d, want 1", es[0].Count)
	}
	s.Append(context.Background(), key, []wire.Entry{{Field: "a", Count: 7, Init: 1}})
	es, _ = s.Get(key, 0)
	if es[0].Count != 8 {
		t.Fatalf("present field with Init: count = %d, want 1+7", es[0].Count)
	}
}

func TestStoreDataReplaced(t *testing.T) {
	s := NewStore()
	key := kadid.HashString("song|4")
	s.Append(context.Background(), key, []wire.Entry{{Field: "song", Data: []byte("uri-v1")}})
	s.Append(context.Background(), key, []wire.Entry{{Field: "song", Data: []byte("uri-v2")}})
	s.Append(context.Background(), key, []wire.Entry{{Field: "song", Count: 1}}) // no data: keep v2

	es, _ := s.Get(key, 0)
	if string(es[0].Data) != "uri-v2" {
		t.Fatalf("Data = %q, want uri-v2", es[0].Data)
	}
}

func TestStoreGetTopNOrdering(t *testing.T) {
	s := NewStore()
	key := kadid.HashString("k")
	s.Append(context.Background(), key, []wire.Entry{
		{Field: "c", Count: 5},
		{Field: "a", Count: 9},
		{Field: "b", Count: 5},
		{Field: "d", Count: 1},
	})
	es, _ := s.Get(key, 3)
	if len(es) != 3 {
		t.Fatalf("topN not applied: %d entries", len(es))
	}
	// Descending count; ties broken by field name.
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if es[i].Field != w {
			t.Fatalf("order[%d] = %s, want %s (full: %+v)", i, es[i].Field, w, es)
		}
	}
}

// TestStoreGetIsSizedToItsAnswer: a read wider than the maintained head
// (topIndexCap < topN < fields) sorts a copy of the whole block, but the
// slice it returns holds exactly its topN entries, so the caller does
// not keep the rest of the copy alive. A head-served read is sized the
// same way.
func TestStoreGetIsSizedToItsAnswer(t *testing.T) {
	s := NewStore()
	key := kadid.HashString("wide")
	block := make([]wire.Entry, 500)
	for i := range block {
		block[i] = wire.Entry{Field: fmt.Sprintf("f%03d", i), Count: uint64(i%17 + 1)}
	}
	s.Append(context.Background(), key, block)
	for _, topN := range []int{10, topIndexCap, topIndexCap + 1, 300} {
		es, ok := s.Get(key, topN)
		if !ok || len(es) != topN || cap(es) != topN {
			t.Errorf("Get(%d): ok=%v len=%d cap=%d, want len and cap %d", topN, ok, len(es), cap(es), topN)
		}
	}
}

// TestStoreGetIntoAppends: getInto extends dst with what Get returns,
// in dst's own array when it has room, and leaves dst as it was when the
// block does not exist.
func TestStoreGetIntoAppends(t *testing.T) {
	s := NewStore()
	key := kadid.HashString("k")
	s.Append(context.Background(), key, []wire.Entry{{Field: "a", Count: 2}, {Field: "b", Count: 3, Data: []byte("x")}})
	want, _ := s.Get(key, 0)

	dst := make([]wire.Entry, 1, 8)
	dst[0] = wire.Entry{Field: "kept"}
	got, ok := s.getInto(dst, key, 0)
	if !ok || len(got) != 3 || &got[0] != &dst[0] || got[0].Field != "kept" {
		t.Fatalf("getInto = %+v (ok=%v), want %q then the block in dst's array", got, ok, "kept")
	}
	for i, e := range got[1:] {
		if e.Field != want[i].Field || e.Count != want[i].Count || string(e.Data) != string(want[i].Data) {
			t.Fatalf("getInto entry %d = %+v, Get gives %+v", i, e, want[i])
		}
	}
	if got, ok := s.getInto(dst, kadid.HashString("nope"), 0); ok || len(got) != 1 || &got[0] != &dst[0] {
		t.Fatalf("getInto of a missing block = %+v (ok=%v), want dst unchanged", got, ok)
	}
}

func TestStoreGetMissing(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get(kadid.HashString("nope"), 0); ok {
		t.Fatal("Get on missing key reported ok")
	}
	if s.Has(kadid.HashString("nope")) {
		t.Fatal("Has on missing key")
	}
}

func TestStoreKeysLenEntryCount(t *testing.T) {
	s := NewStore()
	s.Append(context.Background(), kadid.HashString("k1"), []wire.Entry{{Field: "a", Count: 1}, {Field: "b", Count: 1}})
	s.Append(context.Background(), kadid.HashString("k2"), []wire.Entry{{Field: "c", Count: 1}})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := len(s.Keys()); got != 2 {
		t.Fatalf("Keys = %d, want 2", got)
	}
	if s.EntryCount() != 3 {
		t.Fatalf("EntryCount = %d, want 3", s.EntryCount())
	}
}

func TestStoreConcurrentAppends(t *testing.T) {
	// The commutative merge is what makes DHARMA's Approximation B sound:
	// concurrent "+1 token" appends must never lose an increment.
	s := NewStore()
	key := kadid.HashString("hot")
	const goroutines, perG = 16, 100

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Append(context.Background(), key, []wire.Entry{{Field: "t", Count: 1}})
			}
		}()
	}
	wg.Wait()
	es, _ := s.Get(key, 0)
	if es[0].Count != goroutines*perG {
		t.Fatalf("Count = %d, want %d", es[0].Count, goroutines*perG)
	}
}

func TestStoreGetDoesNotAliasInternalState(t *testing.T) {
	s := NewStore()
	key := kadid.HashString("k")
	s.Append(context.Background(), key, []wire.Entry{{Field: "a", Count: 1, Data: []byte("x")}})
	es, _ := s.Get(key, 0)
	es[0].Count = 999
	es2, _ := s.Get(key, 0)
	if es2[0].Count != 1 {
		t.Fatal("caller mutation leaked into store")
	}
}

func TestStoreEmptyAppendCreatesNoBlock(t *testing.T) {
	// A tagging operation whose forward-arc set is empty still costs a
	// lookup, but the storage node must not materialize a phantom empty
	// block for it — Has would flip true and hotspot accounting skew.
	s := NewStore()
	key := kadid.HashString("phantom")
	s.Append(context.Background(), key, nil)
	s.Append(context.Background(), key, []wire.Entry{})
	s.MergeMax(context.Background(), key, nil)
	if s.Has(key) {
		t.Fatal("empty append materialized a block")
	}
	if s.Len() != 0 || s.EntryCount() != 0 {
		t.Fatalf("Len=%d EntryCount=%d after empty appends, want 0/0", s.Len(), s.EntryCount())
	}
	s.AppendBatch(context.Background(), []BatchItem{{Key: key}, {Key: kadid.HashString("p2")}})
	if s.Len() != 0 {
		t.Fatal("empty batch items materialized blocks")
	}
}

func TestStoreGetCopiesByteSlices(t *testing.T) {
	// Data/Author/Sig of a Get result must not alias internal storage:
	// a caller scribbling over what it got back must not corrupt the
	// stored copy.
	s := NewStore()
	key := kadid.HashString("k")
	s.Append(context.Background(), key, []wire.Entry{{Field: "a", Count: 1, Data: []byte("uri-v1"), Author: []byte("au"), Sig: []byte("sig")}})

	for _, topN := range []int{0, 1} { // filtered (index) and full-scan paths
		es, _ := s.Get(key, topN)
		es[0].Data[0] = 'X'
		es[0].Author[0] = 'X'
		es[0].Sig[0] = 'X'
		es2, _ := s.Get(key, topN)
		if string(es2[0].Data) != "uri-v1" || string(es2[0].Author) != "au" || string(es2[0].Sig) != "sig" {
			t.Fatalf("topN=%d: caller mutation leaked into store: %+v", topN, es2[0])
		}
	}
}

func TestStoreAppendBatchMergesEveryItem(t *testing.T) {
	s := NewStore()
	k1, k2 := kadid.HashString("b1"), kadid.HashString("b2")
	s.Append(context.Background(), k1, []wire.Entry{{Field: "x", Count: 1}})
	s.AppendBatch(context.Background(), []BatchItem{
		{Key: k1, Entries: []wire.Entry{{Field: "x", Count: 2}, {Field: "y", Count: 1}}},
		{Key: k2, Entries: []wire.Entry{{Field: "z", Count: 5}}},
	})
	es, _ := s.Get(k1, 0)
	if len(es) != 2 || es[0].Field != "x" || es[0].Count != 3 {
		t.Fatalf("k1 after batch: %+v", es)
	}
	es, _ = s.Get(k2, 0)
	if len(es) != 1 || es[0].Count != 5 {
		t.Fatalf("k2 after batch: %+v", es)
	}
}

// TestStoreIncrementalOrderMatchesFullSort drives one block through a
// random schedule of Append and MergeMax calls — enough distinct fields
// to overflow the maintained head several times — and checks after every
// step that filtered reads served from the incremental index agree with
// a from-scratch sort of a reference model.
func TestStoreIncrementalOrderMatchesFullSort(t *testing.T) {
	s := NewStore()
	key := kadid.HashString("fuzzy")
	rng := rand.New(rand.NewSource(23))
	ref := make(map[string]uint64)

	check := func(step int) {
		want := make([]wire.Entry, 0, len(ref))
		for f, c := range ref {
			want = append(want, wire.Entry{Field: f, Count: c})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Count != want[j].Count {
				return want[i].Count > want[j].Count
			}
			return want[i].Field < want[j].Field
		})
		for _, topN := range []int{1, 7, topIndexCap, topIndexCap + 5, 0} {
			got, ok := s.Get(key, topN)
			if !ok {
				t.Fatalf("step %d: block missing", step)
			}
			wantN := want
			if topN > 0 && len(wantN) > topN {
				wantN = wantN[:topN]
			}
			if len(got) != len(wantN) {
				t.Fatalf("step %d topN=%d: %d entries, want %d", step, topN, len(got), len(wantN))
			}
			for i := range got {
				if got[i].Field != wantN[i].Field || got[i].Count != wantN[i].Count {
					t.Fatalf("step %d topN=%d order[%d] = %s/%d, want %s/%d",
						step, topN, i, got[i].Field, got[i].Count, wantN[i].Field, wantN[i].Count)
				}
			}
		}
	}

	const fields = 3 * topIndexCap
	for step := 0; step < 1500; step++ {
		f := fmt.Sprintf("f%03d", rng.Intn(fields))
		switch rng.Intn(3) {
		case 0: // plain token append
			c := uint64(rng.Intn(4))
			ref[f] += c
			s.Append(context.Background(), key, []wire.Entry{{Field: f, Count: c}})
		case 1: // Approximation B conditional create
			if _, ok := ref[f]; !ok {
				ref[f] = 1
			} else {
				ref[f] += 2
			}
			s.Append(context.Background(), key, []wire.Entry{{Field: f, Count: 2, Init: 1}})
		default: // replica anti-entropy
			c := uint64(rng.Intn(2000))
			if c > ref[f] {
				ref[f] = c
			} else if _, ok := ref[f]; !ok {
				ref[f] = c
			}
			s.MergeMax(context.Background(), key, []wire.Entry{{Field: f, Count: c}})
		}
		if step%97 == 0 || step == 1499 {
			check(step)
		}
	}
}

// TestStoreGetMatchesSnapshotSort checks Get — the maintained head when
// it covers the read, a sort of copied fields otherwise — against a
// by-value sort of a snapshot of the block, on blocks of 0–300 fields
// whose counts tie often, for filters on both sides of topIndexCap and
// of the block's length.
func TestStoreGetMatchesSnapshotSort(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(37))
	for _, size := range []int{0, 1, 2, 50, 99, 100, 101, 127, 128, 129, 200, 300} {
		s := NewStore()
		key := kadid.HashString(fmt.Sprintf("block-%d", size))
		for _, i := range rng.Perm(size) {
			e := wire.Entry{Field: fmt.Sprintf("f%03d", i), Count: uint64(1 + rng.Intn(3))}
			if i%7 == 0 {
				e.Data = []byte(fmt.Sprintf("uri-%d", i))
			}
			s.Append(ctx, key, []wire.Entry{e})
		}
		for j := 0; j < size; j++ {
			f := fmt.Sprintf("f%03d", rng.Intn(size))
			if rng.Intn(2) == 0 {
				s.Append(ctx, key, []wire.Entry{{Field: f, Count: 1}})
			} else {
				s.MergeMax(ctx, key, []wire.Entry{{Field: f, Count: uint64(1 + rng.Intn(6))}})
			}
		}

		var snap []wire.Entry
		s.mu.RLock()
		blk, exists := s.blocks[key]
		if exists {
			for _, se := range blk.fields {
				snap = append(snap, wire.Entry{Field: se.field, Count: se.count, Data: se.data})
			}
		}
		s.mu.RUnlock()
		sort.Slice(snap, func(i, j int) bool { return compareEntries(snap[i], snap[j]) < 0 })

		for _, n := range []int{0, 1, 100, topIndexCap - 1, topIndexCap, topIndexCap + 1, size, size + 1} {
			got, ok := s.Get(key, n)
			if ok != exists {
				t.Fatalf("size %d: Get(%d) ok = %v, want %v", size, n, ok, exists)
			}
			want := snap
			if n > 0 && n < len(want) {
				want = want[:n]
			}
			if len(got) != len(want) {
				t.Fatalf("size %d: Get(%d) returned %d entries, want %d", size, n, len(got), len(want))
			}
			for i := range got {
				if got[i].Field != want[i].Field || got[i].Count != want[i].Count || string(got[i].Data) != string(want[i].Data) {
					t.Fatalf("size %d: Get(%d)[%d] = %s/%d/%q, want %s/%d/%q", size, n, i,
						got[i].Field, got[i].Count, got[i].Data, want[i].Field, want[i].Count, want[i].Data)
				}
			}
		}
	}
}

// TestStoreConcurrentMixedOps hammers every public method from many
// goroutines; run under -race it checks that every path holds the
// store lock.
func TestStoreConcurrentMixedOps(t *testing.T) {
	s := NewStore()
	keys := make([]kadid.ID, 32)
	for i := range keys {
		keys[i] = kadid.HashString(fmt.Sprintf("ck%d", i))
	}
	const goroutines, perG = 12, 200

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := keys[(g+i)%len(keys)]
				switch i % 6 {
				case 0, 1:
					s.Append(context.Background(), key, []wire.Entry{{Field: fmt.Sprintf("f%d", i%50), Count: 1}})
				case 2:
					s.AppendBatch(context.Background(), []BatchItem{
						{Key: key, Entries: []wire.Entry{{Field: "b", Count: 1}}},
						{Key: keys[(g+i+7)%len(keys)], Entries: []wire.Entry{{Field: "b2", Count: 2}}},
					})
				case 3:
					s.Get(key, 10)
					s.Get(key, 0)
				case 4:
					s.MergeMax(context.Background(), key, []wire.Entry{{Field: "m", Count: uint64(i)}})
				default:
					s.Keys()
					s.Len()
					s.EntryCount()
					s.Has(key)
				}
			}
		}(g)
	}
	wg.Wait()

	// Token conservation: the "f*" appends from case 0/1 must all be
	// accounted for across the key set.
	var total uint64
	for _, key := range keys {
		es, ok := s.Get(key, 0)
		if !ok {
			continue
		}
		for _, e := range es {
			if len(e.Field) > 0 && e.Field[0] == 'f' {
				total += e.Count
			}
		}
	}
	var want uint64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if i%6 == 0 || i%6 == 1 {
				want++
			}
		}
	}
	if total != want {
		t.Fatalf("lost tokens under concurrency: got %d, want %d", total, want)
	}
}
