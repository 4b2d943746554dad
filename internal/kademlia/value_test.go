package kademlia

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/obs"
	"dharma/internal/wire"
)

// replicaBlocks writes a block straight into the local stores of key's
// k closest nodes, the one closest to key holding lowered counts when
// stale is set, and returns a reader outside that set. The writes bypass
// the overlay, so no repair has run when the reader asks.
func replicaBlocks(t *testing.T, cl *Cluster, key kadid.ID, k int, stale bool) (reader *Node, block []wire.Entry) {
	t.Helper()
	block = make([]wire.Entry, 20)
	for i := range block {
		block[i] = wire.Entry{Field: fmt.Sprintf("tag-%02d", i), Count: uint64(3 + i%5)}
	}
	older := make([]wire.Entry, len(block))
	for i, e := range block {
		older[i] = wire.Entry{Field: e.Field, Count: e.Count - uint64(1+i%2)}
	}
	rank := map[kadid.ID]int{}
	for i, c := range cl.ClosestGroundTruth(key, k) {
		rank[c.ID] = i + 1
	}
	for _, n := range cl.Nodes {
		if r := rank[n.id]; r > 0 {
			es := block
			if stale && r == 1 {
				es = older
			}
			if err := n.LocalStore().Append(context.Background(), key, es); err != nil {
				t.Fatal(err)
			}
		} else if reader == nil {
			reader = n
		}
	}
	if reader != nil {
		return reader, block
	}
	t.Fatal("every node is a replica")
	return nil, nil
}

// TestStaleReplicaIsMaxMerged: on a wired 16-node cluster whose replica
// closest to a key holds lower counts than the others, a read returns
// the field-wise maximum in block order, and it is the one read of two
// that counts in ValueMerges; the read of a key whose replicas agree
// does not.
func TestStaleReplicaIsMaxMerged(t *testing.T) {
	cl := wiredCluster(t, 8, 91)
	ctx := context.Background()
	for _, tc := range []struct {
		key    string
		stale  bool
		merges int64
	}{{"agreed|1", false, 0}, {"stale|1", true, 1}} {
		key := kadid.HashString(tc.key)
		reader, block := replicaBlocks(t, cl, key, 8, tc.stale)
		merges0 := reader.Counters().ValueMerges.Load()
		got, err := reader.FindValue(ctx, key, 10)
		if err != nil {
			t.Fatal(err)
		}
		want := topInBlockOrder(block, 10)
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", tc.key, len(got), len(want))
		}
		for i := range want {
			if got[i].Field != want[i].Field || got[i].Count != want[i].Count {
				t.Fatalf("%s: entry %d = %s/%d, want the max %s/%d", tc.key, i, got[i].Field, got[i].Count, want[i].Field, want[i].Count)
			}
		}
		if d := reader.Counters().ValueMerges.Load() - merges0; d != tc.merges {
			t.Errorf("%s: ValueMerges moved by %d, want %d", tc.key, d, tc.merges)
		}
	}
}

// topInBlockOrder returns the first topN of es in block order.
func topInBlockOrder(es []wire.Entry, topN int) []wire.Entry {
	m := make(map[string]wire.Entry)
	oldMergeMax(m, es)
	out := oldSortedEntries(m)
	return out[:min(topN, len(out))]
}

// TestValueMergesExported: dharma_value_merges_total is on the node's
// registry and reads what Counters.ValueMerges holds.
func TestValueMergesExported(t *testing.T) {
	cl := wiredCluster(t, 8, 92)
	key := kadid.HashString("exported-merge|1")
	reader, _ := replicaBlocks(t, cl, key, 8, true)
	if _, err := reader.FindValue(context.Background(), key, 0); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reader.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := parsed["dharma_value_merges_total"]
	if !ok {
		t.Fatal("/metrics has no dharma_value_merges_total")
	}
	if m.Value != 1 || reader.Counters().ValueMerges.Load() != 1 {
		t.Fatalf("dharma_value_merges_total = %v, Counters.ValueMerges = %d, want 1 and 1", m.Value, reader.Counters().ValueMerges.Load())
	}
}

// TestIdleScratchIsBounded: after an unfiltered read of a 5,000-field
// block, no idle lookup arena of the reader and no idle request scratch
// of the replicas that served it keeps more than maxScratchEntries
// entries of any list, and a later small read leaves no entry payload
// behind in the arrays an arena does keep.
func TestIdleScratchIsBounded(t *testing.T) {
	cl := wiredCluster(t, 8, 93)
	ctx := context.Background()
	wide := make([]wire.Entry, 5000)
	for i := range wide {
		wide[i] = wire.Entry{Field: fmt.Sprintf("arc%04d", i), Count: uint64(1 + i%7), Data: []byte("uri")}
	}
	key := kadid.HashString("wide|1")
	if _, err := cl.Nodes[0].Store(ctx, key, wide); err != nil {
		t.Fatal(err)
	}
	reader, _ := replicaBlocks(t, cl, kadid.HashString("small|1"), 8, false)
	if es, err := reader.FindValue(ctx, key, 0); err != nil || len(es) != len(wide) {
		t.Fatalf("wide read: %d entries, err %v", len(es), err)
	}
	check := func(when string) {
		t.Helper()
		for _, a := range reader.arenas.idle {
			for i, p := range a.probes {
				if c := cap(p.resp.Entries); c > maxScratchEntries {
					t.Errorf("%s: an idle arena's probe %d keeps %d entries", when, i, c)
				}
				for _, e := range p.resp.Entries[:cap(p.resp.Entries)] {
					if e.Data != nil || e.Field != "" {
						t.Fatalf("%s: an idle arena's probe %d still holds entry %q", when, i, e.Field)
					}
				}
			}
			if c := cap(a.local); c > maxScratchEntries {
				t.Errorf("%s: an idle arena keeps a local replica of %d entries", when, c)
			}
			if len(a.replies) != 0 {
				t.Errorf("%s: an idle arena keeps %d replies", when, len(a.replies))
			}
		}
		for _, n := range cl.Nodes {
			for _, sc := range n.scratch.idle {
				if c := cap(sc.entries); c > maxScratchEntries {
					t.Errorf("%s: %s's idle request scratch keeps %d entries", when, n.Self().Addr, c)
				}
			}
		}
	}
	check("after the wide read")
	if es, err := reader.FindValue(ctx, kadid.HashString("small|1"), 10); err != nil || len(es) != 10 {
		t.Fatalf("small read: %d entries, err %v", len(es), err)
	}
	check("after a small read")
}

// TestReaderReplicaIsOneReply: the reader's own replica takes part in
// the read like any other reply. Held by the reader alone, the block is
// found; held fresher by the reader than by the overlay's replicas, its
// counts win the max-merge.
func TestReaderReplicaIsOneReply(t *testing.T) {
	cl := wiredCluster(t, 8, 94)
	ctx := context.Background()

	alone := kadid.HashString("reader-only|1")
	reader := cl.Nodes[5]
	if err := reader.LocalStore().Append(ctx, alone, []wire.Entry{{Field: "f", Count: 4}}); err != nil {
		t.Fatal(err)
	}
	if es, err := reader.FindValue(ctx, alone, 0); err != nil || len(es) != 1 || es[0].Count != 4 {
		t.Fatalf("a block only the reader holds: %+v, err %v", es, err)
	}

	key := kadid.HashString("reader-fresher|1")
	reader, block := replicaBlocks(t, cl, key, 8, false)
	fresher := []wire.Entry{{Field: block[0].Field, Count: 100}}
	if err := reader.LocalStore().Append(ctx, key, fresher); err != nil {
		t.Fatal(err)
	}
	merges0 := reader.Counters().ValueMerges.Load()
	es, err := reader.FindValue(ctx, key, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 5 || es[0].Field != block[0].Field || es[0].Count != 100 {
		t.Fatalf("read %+v, want %s at the reader's count 100 first", es, block[0].Field)
	}
	if d := reader.Counters().ValueMerges.Load() - merges0; d != 1 {
		t.Errorf("ValueMerges moved by %d, want 1", d)
	}
}
