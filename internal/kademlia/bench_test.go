package kademlia

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/persist"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

func benchCluster(b *testing.B, n int) *Cluster {
	b.Helper()
	cl, err := NewCluster(ClusterConfig{
		N:    n,
		Node: Config{K: 8, Alpha: 3},
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

// BenchmarkIterativeLookup measures lookup latency against overlay
// size; Kademlia promises O(log n) hops.
func BenchmarkIterativeLookup(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl := benchCluster(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl.Nodes[i%n].IterativeFindNode(context.Background(), kadid.HashString(fmt.Sprintf("t%d", i)))
			}
		})
	}
}

// BenchmarkStoreReplicated measures a replicated write. cold writes a
// fresh key every iteration, so each write is a lookup plus k STOREs;
// cached rewrites keys whose replica sets the writers already hold, so
// each write is the k STOREs alone.
func BenchmarkStoreReplicated(b *testing.B) {
	entries := []wire.Entry{{Field: "f", Count: 1}}
	b.Run("cold", func(b *testing.B) {
		cl := benchCluster(b, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Nodes[i%64].Store(context.Background(), kadid.HashString(fmt.Sprintf("k%d", i)), entries); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cl := benchCluster(b, 64)
		keys := make([]kadid.ID, 256)
		for i := range keys {
			keys[i] = kadid.HashString(fmt.Sprintf("k%d", i))
		}
		store := func(i int) {
			if _, err := cl.Nodes[i%64].Store(context.Background(), keys[i%len(keys)], entries); err != nil {
				b.Fatal(err)
			}
		}
		// Twice round: the first walk of a key may still admit contacts,
		// which starts a new routing epoch.
		for i := range 2 * len(keys) {
			store(i)
		}
		hits := func() (sum int64) {
			for _, n := range cl.Nodes {
				sum += n.Counters().ReplicaSetHits.Load()
			}
			return sum
		}
		hits0 := hits()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store(i)
		}
		b.StopTimer()
		if got := hits() - hits0; got != int64(b.N) {
			b.Fatalf("%d of %d stores hit the replica-set cache", got, b.N)
		}
	})
}

// BenchmarkStoreDurable measures a replicated write on a fleet where
// every node group-commits to its own WAL (default options: fsync after
// the flusher's timerless coalescing). K equals the fleet size, so the
// writer is always a replica and each op waits on its own commit and
// seven remote ones.
func BenchmarkStoreDurable(b *testing.B) {
	cl, err := NewCluster(ClusterConfig{
		N:       8,
		Node:    Config{K: 8, Alpha: 3},
		Seed:    1,
		DataDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Shutdown()
	writer := cl.Nodes[0]
	entries := []wire.Entry{{Field: "f", Count: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := writer.Store(context.Background(), kadid.HashString(fmt.Sprintf("k%d", i%256)), entries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindValueHot measures repeated reads of one popular block.
func BenchmarkFindValueHot(b *testing.B) {
	cl := benchCluster(b, 64)
	key := kadid.HashString("hot")
	if _, err := cl.Nodes[0].Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 1}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Nodes[i%64].FindValue(context.Background(), key, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindValueWide measures a search step's read of a wide block:
// the top 100 of a 2,000-field block, whose replicas agree.
func BenchmarkFindValueWide(b *testing.B) {
	cl := benchCluster(b, 64)
	key := kadid.HashString("wide")
	block := make([]wire.Entry, 2000)
	for i := range block {
		block[i] = wire.Entry{Field: fmt.Sprintf("arc%04d", i), Count: uint64(i%97 + 1)}
	}
	if _, err := cl.Nodes[0].Store(context.Background(), key, block); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if es, err := cl.Nodes[i%64].FindValue(context.Background(), key, 100); err != nil || len(es) != 100 {
			b.Fatalf("%d entries, err %v", len(es), err)
		}
	}
}

// BenchmarkRoutingTableUpdate measures the table's hot path.
func BenchmarkRoutingTableUpdate(b *testing.B) {
	tab := NewTable(kadid.HashString("self"), 20, nil)
	contacts := make([]wire.Contact, 1024)
	for i := range contacts {
		contacts[i] = wire.Contact{ID: kadid.HashString(fmt.Sprintf("c%d", i)), Addr: "a"}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Update(contacts[i%len(contacts)])
	}
}

// BenchmarkHandleRPC is the composed serving path the alloc gate holds:
// decode → admit → table update → dispatch → encode on a warmed node.
// Each reply is handed back to the wire free list, as a transport does,
// and find_value's entry list is the request scratch's, so the budget
// is 0. store and replicate gate the store's two mutation rules, append and max-merge;
// replicate re-merges a field the block already holds at a higher
// count, which is a republish round's steady state.
func BenchmarkHandleRPC(b *testing.B) {
	cl := benchCluster(b, 64)
	srv, from := cl.Nodes[1], cl.Nodes[2].Self()
	ctx := context.Background()
	key := kadid.HashString("hot")
	block := make([]wire.Entry, 16)
	for i := range block {
		block[i] = wire.Entry{Field: fmt.Sprintf("tag-%02d", i), Count: uint64(i + 1)}
	}
	if err := srv.LocalStore().Append(ctx, key, block); err != nil {
		b.Fatal(err)
	}
	for _, req := range []struct {
		name string
		msg  wire.Message
		want wire.Kind
	}{
		{"find_node", wire.Message{Kind: wire.KindFindNode, Target: kadid.HashString("elsewhere")}, wire.KindNodes},
		{"find_value", wire.Message{Kind: wire.KindFindValue, Target: key, TopN: 8}, wire.KindValue},
		{"store", wire.Message{Kind: wire.KindStore, Target: key, Entries: block[3:4]}, wire.KindStoreAck},
		{"replicate", wire.Message{Kind: wire.KindReplicate, Target: key, Entries: block[3:4]}, wire.KindStoreAck},
	} {
		b.Run(req.name, func(b *testing.B) {
			req.msg.From = from
			payload := wire.Encode(&req.msg)
			out, err := srv.HandleRPC(ctx, simnet.Addr(from.Addr), payload) // warm the scratch
			if err != nil {
				b.Fatal(err)
			}
			if resp, err := wire.Decode(out); err != nil || resp.Kind != req.want {
				b.Fatalf("reply %v, err %v; want %v", resp, err, req.want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := srv.HandleRPC(ctx, simnet.Addr(from.Addr), payload)
				if err != nil {
					b.Fatal(err)
				}
				wire.Recycle(out)
			}
		})
	}
}

// BenchmarkCallRoundTrip is the composed client path over a simnet
// endpoint: encode, admission at the receiver, its handler, and the
// reply decoded into a message the caller owns. Request and reply
// buffers come from the wire free list and go back to it, and
// admission allocates nothing, so the budget is 0.
func BenchmarkCallRoundTrip(b *testing.B) {
	cl := benchCluster(b, 64)
	from, to := cl.Nodes[1], cl.Nodes[2].Self()
	ctx := context.Background()
	target := kadid.HashString("elsewhere")
	var req, resp wire.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req = wire.Message{Kind: wire.KindFindNode, Target: target}
		if err := from.callOnce(ctx, to, &req, &resp); err != nil || len(resp.Contacts) == 0 {
			b.Fatalf("reply %v, err %v", resp.Kind, err)
		}
	}
}

// BenchmarkLocalStoreAppend measures the storage merge path.
func BenchmarkLocalStoreAppend(b *testing.B) {
	s := NewStore()
	keys := make([]kadid.ID, 64)
	for i := range keys {
		keys[i] = kadid.HashString(fmt.Sprintf("k%d", i))
	}
	e := []wire.Entry{{Field: "f", Count: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(context.Background(), keys[i%len(keys)], e)
	}
}

// BenchmarkForcedSweep measures one forced anti-entropy sweep
// (AntiEntropyOnce with every = 1) of a node holding a realistic block
// population: per block, one iterative lookup plus a summary exchange
// with each of the k closest nodes.
func BenchmarkForcedSweep(b *testing.B) {
	for _, blocks := range []int{16, 64} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			cl := benchCluster(b, 32)
			republisher := cl.Nodes[1]
			entries := []wire.Entry{{Field: "f", Count: 3}, {Field: "g", Count: 1}}
			for i := 0; i < blocks; i++ {
				republisher.LocalStore().Append(context.Background(), kadid.HashString(fmt.Sprintf("rep%d", i)), entries)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r := republisher.AntiEntropyOnce(context.Background(), 1); r.Synced != blocks {
					b.Fatalf("synced %d blocks, want %d", r.Synced, blocks)
				}
			}
		})
	}
}

// BenchmarkChurnRecovery measures the acceptance path end to end: with
// a block replicated on k nodes, crash k-1 holders (SetDown, so the
// cluster is reusable across iterations) and time how long the
// survivor's maintenance round plus a verifying read take to restore
// full readability.
func BenchmarkChurnRecovery(b *testing.B) {
	cl := benchCluster(b, 32) // K = 8, so each recovery survives 7 crashes
	reader := cl.Nodes[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		key := kadid.HashString(fmt.Sprintf("recover%d", i))
		if _, err := cl.Nodes[2].Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 5}}); err != nil {
			b.Fatal(err)
		}
		var holders []*Node
		for _, n := range cl.Snapshot() {
			if n != reader && n.LocalStore().Has(key) {
				holders = append(holders, n)
			}
		}
		if len(holders) < 2 {
			continue
		}
		survivor := holders[len(holders)-1]
		downed := holders[:len(holders)-1]
		for _, h := range downed {
			cl.Net.SetDown(simnet.Addr(h.Self().Addr), true)
		}
		b.StartTimer()
		survivor.MaintainOnce(context.Background())
		if _, err := reader.FindValue(context.Background(), key, 0); err != nil {
			b.Fatalf("block unreadable after recovery: %v", err)
		}
		b.StopTimer()

		for _, h := range downed {
			cl.Net.SetDown(simnet.Addr(h.Self().Addr), false)
		}
		b.StartTimer()
	}
}

// baselineStore is the pre-refactor block store — one global RWMutex,
// plain maps, full O(n log n) sort on every Get — kept verbatim as the
// benchmark baseline the incrementally indexed Store is measured
// against.
type baselineStore struct {
	mu     sync.RWMutex
	blocks map[kadid.ID]map[string]*baselineEntry
}

type baselineEntry struct {
	count uint64
	data  []byte
}

func newBaselineStore() *baselineStore {
	return &baselineStore{blocks: make(map[kadid.ID]map[string]*baselineEntry)}
}

func (s *baselineStore) Append(key kadid.ID, entries []wire.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blk, ok := s.blocks[key]
	if !ok {
		blk = make(map[string]*baselineEntry, len(entries))
		s.blocks[key] = blk
	}
	for _, e := range entries {
		se, ok := blk[e.Field]
		if !ok {
			se = &baselineEntry{}
			blk[e.Field] = se
			if e.Init > 0 {
				se.count = e.Init
			} else {
				se.count = e.Count
			}
		} else {
			se.count += e.Count
		}
		if len(e.Data) > 0 {
			se.data = append([]byte(nil), e.Data...)
		}
	}
}

func (s *baselineStore) Get(key kadid.ID, topN int) ([]wire.Entry, bool) {
	s.mu.RLock()
	blk, ok := s.blocks[key]
	if !ok {
		s.mu.RUnlock()
		return nil, false
	}
	out := make([]wire.Entry, 0, len(blk))
	for f, se := range blk {
		out = append(out, wire.Entry{Field: f, Count: se.count, Data: se.data})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Field < out[j].Field
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out, true
}

// hotBlockSize is the ISSUE's reference block: a popular tag that has
// accumulated 50k reverse arcs.
const hotBlockSize = 50_000

func fillHotBlock(append func(kadid.ID, []wire.Entry), key kadid.ID) {
	const chunk = 1000
	for base := 0; base < hotBlockSize; base += chunk {
		entries := make([]wire.Entry, chunk)
		for i := range entries {
			f := base + i
			entries[i] = wire.Entry{Field: fmt.Sprintf("arc%05d", f), Count: uint64(f%9973 + 1)}
		}
		append(key, entries)
	}
}

// fillHotBlockStore adapts fillHotBlock to the error-returning Store
// mutator (the in-memory store never fails).
func fillHotBlockStore(s *Store, key kadid.ID) {
	fillHotBlock(func(k kadid.ID, es []wire.Entry) { s.Append(context.Background(), k, es) }, key) //nolint:errcheck
}

// BenchmarkRecovery measures a full durable-store recovery of the
// ISSUE's reference state — one 50k-entry hot block — in both layouts:
// a raw WAL tail (every append replayed record by record) and the
// compacted snapshot the background compaction converges to.
//
//	go test ./internal/kademlia/ -run xxx -bench Recovery
func BenchmarkRecovery(b *testing.B) {
	build := func(b *testing.B, compact bool) string {
		b.Helper()
		dir := b.TempDir()
		s, _, err := OpenDurableStore(dir, persist.Options{
			Sync: persist.SyncNone, SegmentBytes: 1 << 30, CompactBytes: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		fillHotBlockStore(s, kadid.HashString("hot"))
		if compact {
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, layout := range []struct {
		name    string
		compact bool
	}{
		{"wal-tail", false},
		{"snapshot", true},
	} {
		b.Run(layout.name, func(b *testing.B) {
			dir := build(b, layout.compact)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, _, err := OpenDurableStore(dir, persist.Options{Sync: persist.SyncNone, CompactBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				if es, ok := s.Get(kadid.HashString("hot"), 100); !ok || len(es) != 100 {
					b.Fatalf("recovered store broken: ok=%v len=%d", ok, len(es))
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDurableAppend is the store-level view of the WAL cost: the
// same hot append as BenchmarkStoreAppendHot, but logged and flushed
// (no fsync, isolating the logging overhead from disk latency).
func BenchmarkDurableAppend(b *testing.B) {
	dir := b.TempDir()
	s, _, err := OpenDurableStore(dir, persist.Options{
		Sync: persist.SyncNone, SegmentBytes: 1 << 30, CompactBytes: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	key := kadid.HashString("hot")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(context.Background(), key, []wire.Entry{{Field: fmt.Sprintf("arc%05d", i%hotBlockSize), Count: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGetHot measures the paper's hot read — Get(key, 100) on
// a 50k-entry block — against the incrementally maintained index.
func BenchmarkStoreGetHot(b *testing.B) {
	s := NewStore()
	key := kadid.HashString("hot")
	fillHotBlockStore(s, key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if es, ok := s.Get(key, 100); !ok || len(es) != 100 {
			b.Fatalf("bad read: %d entries, ok=%v", len(es), ok)
		}
	}
}

// BenchmarkStoreGetHotBaseline is the identical read against the
// pre-refactor store, which re-sorts the full block on every call.
func BenchmarkStoreGetHotBaseline(b *testing.B) {
	s := newBaselineStore()
	key := kadid.HashString("hot")
	fillHotBlock(s.Append, key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if es, ok := s.Get(key, 100); !ok || len(es) != 100 {
			b.Fatalf("bad read: %d entries, ok=%v", len(es), ok)
		}
	}
}

// BenchmarkStoreAppendHot measures the "+1 token" write against a 50k
// block — the price of keeping the index incremental.
func BenchmarkStoreAppendHot(b *testing.B) {
	s := NewStore()
	key := kadid.HashString("hot")
	fillHotBlockStore(s, key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(context.Background(), key, []wire.Entry{{Field: fmt.Sprintf("arc%05d", i%hotBlockSize), Count: 1}})
	}
}

// BenchmarkStoreHotMixedParallel is the contended shape the index
// exists for, and the measure of what the store's single lock costs:
// every core hammering reads and writes of the same hot block plus a
// spread of cold ones.
func BenchmarkStoreHotMixedParallel(b *testing.B) {
	s := NewStore()
	hot := kadid.HashString("hot")
	fillHotBlockStore(s, hot)
	cold := make([]kadid.ID, 256)
	for i := range cold {
		cold[i] = kadid.HashString(fmt.Sprintf("cold%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			switch i % 4 {
			case 0:
				s.Get(hot, 100)
			case 1:
				s.Append(context.Background(), hot, []wire.Entry{{Field: fmt.Sprintf("arc%05d", i%hotBlockSize), Count: 1}})
			case 2:
				s.Append(context.Background(), cold[i%len(cold)], []wire.Entry{{Field: "f", Count: 1}})
			default:
				s.Get(cold[i%len(cold)], 10)
			}
			i++
		}
	})
}
