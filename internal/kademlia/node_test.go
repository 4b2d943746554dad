package kademlia

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/persist"
	"dharma/internal/session"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

func newTestCluster(t *testing.T, n int, seed int64) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		N:    n,
		Node: Config{K: 8, Alpha: 3},
		Seed: seed,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

func TestIterativeFindNodeFindsTrueClosest(t *testing.T) {
	cl := newTestCluster(t, 48, 1)
	rng := rand.New(rand.NewSource(2))

	for trial := 0; trial < 10; trial++ {
		target := kadid.Random(rng)
		origin := cl.Nodes[rng.Intn(len(cl.Nodes))]
		got := origin.IterativeFindNode(context.Background(), target)
		want := cl.ClosestGroundTruth(target, 8)

		if len(got) < len(want) {
			t.Fatalf("trial %d: found %d contacts, want %d", trial, len(got), len(want))
		}
		gotIDs := map[kadid.ID]bool{}
		for _, c := range got {
			gotIDs[c.ID] = true
		}
		// The lookup runs from `origin`, which never returns itself; all
		// other ground-truth nodes must be present.
		for _, w := range want {
			if w.ID == origin.Self().ID {
				continue
			}
			if !gotIDs[w.ID] {
				t.Fatalf("trial %d: lookup missed true closest node %s", trial, w.ID.Short())
			}
		}
		// Result must be sorted by distance.
		for i := 1; i < len(got); i++ {
			if kadid.Closer(got[i].ID, got[i-1].ID, target) {
				t.Fatalf("trial %d: result not sorted", trial)
			}
		}
	}
}

func TestStoreAndFindValue(t *testing.T) {
	cl := newTestCluster(t, 32, 3)
	key := kadid.HashString("rock|3")
	writer := cl.Nodes[5]
	reader := cl.Nodes[20]

	acks, err := writer.Store(context.Background(), key, []wire.Entry{{Field: "pop", Count: 2}, {Field: "indie", Count: 1}})
	if err != nil {
		t.Fatalf("Store: %v", err)
	}
	if acks < 1 {
		t.Fatal("no replica acknowledged")
	}

	es, err := reader.FindValue(context.Background(), key, 0)
	if err != nil {
		t.Fatalf("FindValue: %v", err)
	}
	if len(es) != 2 || es[0].Field != "pop" || es[0].Count != 2 {
		t.Fatalf("entries = %+v", es)
	}
}

func TestFindValueNotFound(t *testing.T) {
	cl := newTestCluster(t, 16, 4)
	if _, err := cl.Nodes[3].FindValue(context.Background(), kadid.HashString("absent"), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestStoreAppendsAccumulateAcrossWriters(t *testing.T) {
	cl := newTestCluster(t, 24, 5)
	key := kadid.HashString("jazz|3")
	for i := 0; i < 10; i++ {
		if _, err := cl.Nodes[i].Store(context.Background(), key, []wire.Entry{{Field: "swing", Count: 1}}); err != nil {
			t.Fatalf("Store %d: %v", i, err)
		}
	}
	es, err := cl.Nodes[15].FindValue(context.Background(), key, 0)
	if err != nil {
		t.Fatalf("FindValue: %v", err)
	}
	if len(es) != 1 || es[0].Count != 10 {
		t.Fatalf("entries = %+v, want swing/10", es)
	}
}

func TestValueSurvivesReplicaFailures(t *testing.T) {
	cl := newTestCluster(t, 32, 6)
	key := kadid.HashString("blues|2")
	if _, err := cl.Nodes[1].Store(context.Background(), key, []wire.Entry{{Field: "r", Count: 1}}); err != nil {
		t.Fatal(err)
	}

	// Take down half of the replica set (K=8 -> 4 holders).
	holders := cl.ClosestGroundTruth(key, 8)
	for _, h := range holders[:4] {
		cl.Net.SetDown(simnet.Addr(h.Addr), true)
	}

	// A reader that is not among the dead replicas must still find it.
	var reader *Node
	for _, n := range cl.Nodes {
		dead := false
		for _, h := range holders[:4] {
			if n.Self().ID == h.ID {
				dead = true
				break
			}
		}
		if !dead {
			reader = n
			break
		}
	}
	if _, err := reader.FindValue(context.Background(), key, 0); err != nil {
		t.Fatalf("FindValue after failures: %v", err)
	}
}

func TestFindValueTopNFiltering(t *testing.T) {
	cl := newTestCluster(t, 24, 7)
	key := kadid.HashString("pop|3")
	var entries []wire.Entry
	for i := 0; i < 50; i++ {
		entries = append(entries, wire.Entry{Field: fmt.Sprintf("t%02d", i), Count: uint64(i + 1)})
	}
	if _, err := cl.Nodes[0].Store(context.Background(), key, entries); err != nil {
		t.Fatal(err)
	}
	es, err := cl.Nodes[10].FindValue(context.Background(), key, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 5 {
		t.Fatalf("got %d entries, want 5", len(es))
	}
	// The top-5 by count are t49..t45.
	if es[0].Field != "t49" || es[4].Field != "t45" {
		t.Fatalf("filter returned wrong entries: %+v", es)
	}
}

func TestBootstrapRequiresSeeds(t *testing.T) {
	n := NewNode(kadid.HashString("lonely"), Config{K: 4})
	net := simnet.New(simnet.Config{})
	n.Attach(net.Attach("lonely", n))
	if err := n.Bootstrap(context.Background(), nil); !errors.Is(err, ErrNoContacts) {
		t.Fatalf("want ErrNoContacts, got %v", err)
	}
}

func TestLookupCounterIncrements(t *testing.T) {
	cl := newTestCluster(t, 16, 8)
	n := cl.Nodes[2]
	before := n.Counters().Lookups.Load()
	n.IterativeFindNode(context.Background(), kadid.HashString("x"))
	if _, err := n.FindValue(context.Background(), kadid.HashString("y"), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unexpected: %v", err)
	}
	if got := n.Counters().Lookups.Load() - before; got != 2 {
		t.Fatalf("Lookups delta = %d, want 2", got)
	}
}

func TestPing(t *testing.T) {
	cl := newTestCluster(t, 4, 9)
	if !cl.Nodes[1].Ping(context.Background(), cl.Nodes[2].Self()) {
		t.Fatal("live node did not answer ping")
	}
	cl.Net.SetDown("node-2", true)
	if cl.Nodes[1].Ping(context.Background(), cl.Nodes[2].Self()) {
		t.Fatal("dead node answered ping")
	}
}

func TestRefreshBucketPopulates(t *testing.T) {
	cl := newTestCluster(t, 32, 10)
	n := cl.Nodes[4]
	buckets := n.Table().NonEmptyBuckets()
	if len(buckets) == 0 {
		t.Fatal("no buckets after bootstrap")
	}
	before := n.Table().Len()
	n.RefreshBucket(context.Background(), buckets[0], 123)
	if n.Table().Len() < before {
		t.Fatal("refresh shrank the table")
	}
}

func TestLikirClusterAcceptsCertifiedTraffic(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{
		N:         16,
		Node:      Config{K: 4, Alpha: 2},
		Seed:      11,
		Authority: auth,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	key := kadid.HashString("folk|3")
	if _, err := cl.Nodes[3].Store(context.Background(), key, []wire.Entry{{Field: "acoustic", Count: 1}}); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if _, err := cl.Nodes[9].FindValue(context.Background(), key, 0); err != nil {
		t.Fatalf("FindValue: %v", err)
	}
}

func TestLikirClusterRejectsUncredentialedPeer(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{
		N:         8,
		Node:      Config{K: 4, Alpha: 2},
		Seed:      12,
		Authority: auth,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A rogue node with a self-chosen ID and no credential. Honest nodes
	// must refuse its RPCs: whatever its local API reports, no certified
	// node may end up holding its block, and no certified node may admit
	// it into a routing table.
	rogue := NewNode(kadid.HashString("rogue"), Config{K: 4, Alpha: 2})
	rogue.Attach(cl.Net.Attach("rogue", rogue))
	key := kadid.HashString("x|3")
	if err := rogue.Bootstrap(context.Background(), []wire.Contact{cl.Nodes[0].Self()}); err == nil {
		rogue.Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 1}}) //nolint:errcheck
	}
	for i, n := range cl.Nodes {
		if n.LocalStore().Has(key) {
			t.Fatalf("certified node %d stored a block from an uncredentialed peer", i)
		}
		if n.Table().Contains(rogue.Self().ID) {
			t.Fatalf("certified node %d admitted the rogue into its routing table", i)
		}
	}
	if _, err := cl.Nodes[3].FindValue(context.Background(), key, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rogue block visible on the overlay: %v", err)
	}
}

func TestLikirDropsTamperedEntries(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{
		N:         12,
		Node:      Config{K: 4, Alpha: 2},
		Seed:      13,
		Authority: auth,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := kadid.HashString("uri|4")
	writer := cl.Nodes[2]

	good := wire.Entry{Field: "res", Data: []byte("http://good")}
	good.Author, good.Sig = writer.cfg.Identity.SignEntry(key, good.Field, good.Data)

	evil := wire.Entry{Field: "res2", Data: []byte("http://evil")}
	evil.Author, evil.Sig = writer.cfg.Identity.SignEntry(key, evil.Field, evil.Data)
	evil.Data = []byte("http://tampered") // break the signature

	// Strict mode: a batch carrying one bad signature is refused whole —
	// no replica acks it and nothing lands, not even the good entry.
	if _, err := writer.Store(context.Background(), key, []wire.Entry{good, evil}); !errors.Is(err, wire.ErrUnauthorized) {
		t.Fatalf("tampered batch: want ErrUnauthorized, got %v", err)
	}
	if _, err := cl.Nodes[7].FindValue(context.Background(), key, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tampered batch left residue on the overlay: %v", err)
	}

	// An unsigned data entry is refused the same way: data must always
	// be attributable.
	unsigned := wire.Entry{Field: "res3", Data: []byte("http://unsigned")}
	if _, err := writer.Store(context.Background(), key, []wire.Entry{unsigned}); !errors.Is(err, wire.ErrUnauthorized) {
		t.Fatalf("unsigned data entry: want ErrUnauthorized, got %v", err)
	}

	// The cleanly signed entry alone stores and reads back everywhere.
	if _, err := writer.Store(context.Background(), key, []wire.Entry{good}); err != nil {
		t.Fatalf("Store(good): %v", err)
	}
	es, err := cl.Nodes[7].FindValue(context.Background(), key, 0)
	if err != nil {
		t.Fatalf("FindValue: %v", err)
	}
	if len(es) != 1 || es[0].Field != "res" {
		t.Fatalf("want exactly the good entry, got %+v", es)
	}

	// The writer's own replica vets the same way. Under the writer's own
	// ID it is the closest replica; with every other node down its local
	// refusal is the only verdict, and it must still read as
	// unauthorized rather than as an unreachable replica set.
	self := writer.Self().ID
	for _, n := range cl.Nodes {
		if n != writer {
			cl.Net.SetDown(simnet.Addr(n.Self().Addr), true)
		}
	}
	if _, err := writer.Store(context.Background(), self, []wire.Entry{unsigned}); !errors.Is(err, wire.ErrUnauthorized) {
		t.Fatalf("local replica refusal: want ErrUnauthorized, got %v", err)
	}
	if writer.LocalStore().Has(self) {
		t.Fatal("writer holds an entry its own replica refused")
	}
}

func TestRevokedPeerRejected(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := likir.NewRevocationSet(auth.PublicKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{
		N:         10,
		Node:      Config{K: 4, Alpha: 2, Revoked: set.Contains},
		Seed:      61,
		Authority: auth,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := cl.Nodes[3]
	key := kadid.HashString("pre|3")
	if _, err := victim.Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 1}}); err != nil {
		t.Fatalf("store before revocation: %v", err)
	}

	// The authority withdraws the victim's identity; every node's
	// revocation set sees it (shared set here, as if all refreshed).
	auth.Revoke(victim.Self().ID)
	if err := set.Refresh(auth.PublicKey(), auth.RevocationBundle()); err != nil {
		t.Fatal(err)
	}

	// The victim can no longer operate: peers reject every RPC, even
	// though it was admitted (and cached) before the revocation.
	if _, err := victim.Store(context.Background(), kadid.HashString("post|3"), []wire.Entry{{Field: "f", Count: 1}}); err == nil {
		acks := 0
		for _, n := range cl.Nodes {
			if n != victim && n.LocalStore().Has(kadid.HashString("post|3")) {
				acks++
			}
		}
		if acks > 0 {
			t.Fatalf("revoked peer stored on %d honest nodes", acks)
		}
	}
	if victim.Ping(context.Background(), cl.Nodes[1].Self()) {
		t.Fatal("revoked peer still gets PONGs")
	}
}

func TestClusterRejectsBadSize(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{N: 0}); err == nil {
		t.Fatal("accepted empty cluster")
	}
}

func TestLookupsUnderPacketLoss(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		N:    32,
		Node: Config{K: 8, Alpha: 3},
		Net:  simnet.Config{DropRate: 0.05, Seed: 77},
		Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := kadid.HashString("lossy|3")
	if _, err := cl.Nodes[1].Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 1}}); err != nil {
		t.Fatalf("Store under loss: %v", err)
	}
	// Retry a few times: 5% loss can still kill a single lookup.
	var got []wire.Entry
	for i := 0; i < 5 && got == nil; i++ {
		if es, err := cl.Nodes[9].FindValue(context.Background(), key, 0); err == nil {
			got = es
		}
	}
	if got == nil {
		t.Fatal("value unreachable under 5% loss with retries")
	}
}

// TestStoreSendsBeforeLocalCommit: when the writer is one of a key's
// replicas, its own durable commit runs while the remote STOREs are in
// flight, not before them. A compaction freezes the writer's log, and
// its dump holds the freeze until every remote replica holds the block,
// so the remote STOREs must all land while the local commit cannot.
func TestStoreSendsBeforeLocalCommit(t *testing.T) {
	cl := newTestCluster(t, 7, 33)
	store, _, err := OpenDurableStore(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	writer, err := cl.AddNode(context.Background(), Config{K: 8, Alpha: 3, Store: store}, 1033, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { writer.Shutdown() }) //nolint:errcheck // test teardown
	// The writer is the closest replica of its own ID.
	key := writer.Self().ID

	// held counts the remote replicas holding the block.
	held := func() int {
		n := 0
		for _, node := range cl.Nodes[:7] {
			if node.LocalStore().Has(key) {
				n++
			}
		}
		return n
	}
	frozen := make(chan struct{})
	heldAtRelease := make(chan int, 1)
	compacted := make(chan error, 1)
	go func() {
		compacted <- store.WAL().Compact(func(add func(persist.Record) error) error {
			close(frozen)
			deadline := time.Now().Add(5 * time.Second)
			for held() < 7 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			heldAtRelease <- held()
			return store.dumpBlocks(add)
		})
	}()
	<-frozen

	type result struct {
		acks int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		acks, err := writer.Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 1}})
		done <- result{acks, err}
	}()

	if n := <-heldAtRelease; n != 7 {
		t.Fatalf("%d of 7 remote replicas hold the block while the writer's log is frozen", n)
	}
	if err := <-compacted; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if r := <-done; r.err != nil || r.acks != 8 {
		t.Fatalf("Store = %d acks, err %v; want 8 acks", r.acks, r.err)
	}
	if !writer.LocalStore().Has(key) {
		t.Fatal("writer's own replica missing after Store")
	}
}

// TestStoreTooLargeIsNotDeath: a block over the network's MTU is a size
// verdict. The write fails with simnet.ErrTooLarge, and the replicas that
// could not receive it stay in every routing table.
func TestStoreTooLargeIsNotDeath(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		N:    16,
		Node: Config{K: 4, Alpha: 3},
		Net:  simnet.Config{MTU: 2048},
		Seed: 34,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := kadid.HashString("wide|3")
	replicas := map[kadid.ID]bool{}
	for _, c := range cl.ClosestGroundTruth(key, 4) {
		replicas[c.ID] = true
	}
	var writer *Node
	for _, n := range cl.Nodes {
		if !replicas[n.Self().ID] {
			writer = n
			break
		}
	}
	// Warm the path first, so the lookup inside Store meets only contacts
	// every table already holds.
	writer.IterativeFindNode(context.Background(), key)
	lens := make([]int, len(cl.Nodes))
	for i, n := range cl.Nodes {
		lens[i] = n.Table().Len()
	}

	block := make([]wire.Entry, 200)
	for i := range block {
		block[i] = wire.Entry{Field: fmt.Sprintf("field-%03d", i), Count: 1}
	}
	if _, err := writer.Store(context.Background(), key, block); !errors.Is(err, simnet.ErrTooLarge) {
		t.Errorf("over-MTU store: want ErrTooLarge, got %v", err)
	}
	for i, n := range cl.Nodes {
		if got := n.Table().Len(); got != lens[i] {
			t.Errorf("node %d routing table: %d contacts after the over-MTU store, %d before", i, got, lens[i])
		}
		if n.LocalStore().Has(key) {
			t.Errorf("node %d holds the over-MTU block", i)
		}
	}
}

// TestListPastTheCodecIsASizeVerdict: a message listing more entries
// than the codec decodes (wire.MaxListLen) is refused before it is sent,
// with simnet.ErrTooLarge. Sent, the receiver would drop it unanswered
// and the caller would read the silence as a dead peer. An unfiltered
// read of a block that wide is answered with the same size verdict, not
// "not found", and anti-entropy's whole-block push of it fails the same
// way, evicting no one.
func TestListPastTheCodecIsASizeVerdict(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 2, Node: Config{K: 4}, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	a, b := cl.Nodes[0], cl.Nodes[1]
	if !inTable(a, b.Self()) {
		t.Fatal("a does not know b after boot")
	}
	ctx := context.Background()
	key := kadid.HashString("wide")
	wide := make([]wire.Entry, wire.MaxListLen+1)
	for i := range wide {
		wide[i] = wire.Entry{Field: fmt.Sprintf("f%06d", i), Count: 1}
	}
	var resp wire.Message
	err = a.call(ctx, b.Self(), &wire.Message{Kind: wire.KindReplicate, Target: key, Entries: wide}, &resp)
	if !errors.Is(err, simnet.ErrTooLarge) {
		t.Fatalf("REPLICATE of %d entries: want ErrTooLarge, got %v", len(wide), err)
	}
	if !inTable(a, b.Self()) {
		t.Fatal("a size verdict evicted the live receiver")
	}
	if b.LocalStore().Has(key) {
		t.Fatal("the refused REPLICATE reached the receiver")
	}

	// b holds the block: a read of all of it cannot travel, a filtered
	// one can.
	if err := b.LocalStore().MergeMax(ctx, key, wide); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FindValue(ctx, key, 0); !errors.Is(err, simnet.ErrTooLarge) {
		t.Fatalf("unfiltered read of %d fields: want ErrTooLarge, got %v", len(wide), err)
	}
	if !inTable(a, b.Self()) {
		t.Fatal("the size verdict on a read evicted the holder")
	}
	if es, err := a.FindValue(ctx, key, 100); err != nil || len(es) != 100 {
		t.Fatalf("read of the top 100 = %d entries, %v; want 100", len(es), err)
	}

	// Both replicas hold the block, too wide for b to enumerate in its
	// SUMMARY_REPLY, and a holds one field more: a falls back to pushing
	// the whole block, which cannot travel either.
	if err := a.LocalStore().MergeMax(ctx, key, append(wide, wire.Entry{Field: "extra", Count: 1})); err != nil {
		t.Fatal(err)
	}
	full := a.Counters().FullBlocks.Load()
	if r := a.AntiEntropyOnce(ctx, 1); r.Synced != 1 || r.Acks != 0 {
		t.Fatalf("sync of the wide block = %+v, want 1 synced, 0 acks", r)
	}
	if got := a.Counters().FullBlocks.Load() - full; got != 1 {
		t.Fatalf("whole-block fallbacks = %d, want 1", got)
	}
	if !inTable(a, b.Self()) {
		t.Fatal("the failed whole-block push evicted the live replica")
	}
}

// TestRequestPastTheDatagramIsASizeVerdict: over sealed UDP, a request
// one byte larger than a datagram carries is refused before it is sent,
// with simnet.ErrTooLarge, and the receiver stays in the caller's table;
// a request at the bound travels and is stored. The bound is IPv4's
// largest UDP payload, 65,507 bytes, less the frame header (kind and
// request id, 9 bytes) and the seal.
func TestRequestPastTheDatagramIsASizeVerdict(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	var nodes [2]*Node
	for i := range nodes {
		id, err := auth.Issue(nil, fmt.Sprintf("node-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = securedUDPNode(t, auth, id)
	}
	a, b := nodes[0], nodes[1]
	a.Table().Update(b.Self())
	bound := 65507 - 9 - session.Overhead

	// Entries with long fields up to the bound plus one byte, as callOnce
	// encodes them (From is the caller, no deadline).
	msg := &wire.Message{Kind: wire.KindStore, Target: kadid.HashString("big"), From: wire.Contact{ID: a.Self().ID}}
	size := func() int { return len(wire.Encode(msg)) }
	for i := 0; size() < bound-3000; i++ {
		msg.Entries = append(msg.Entries, wire.Entry{Field: fmt.Sprintf("%04d%s", i, strings.Repeat("x", 1000)), Count: 1})
	}
	msg.Entries = append(msg.Entries, wire.Entry{Count: 1})
	last := &msg.Entries[len(msg.Entries)-1]
	for size() != bound+1 {
		last.Field = strings.Repeat("y", len(last.Field)+bound+1-size())
	}

	ctx := context.Background()
	var resp wire.Message
	if err := a.call(ctx, b.Self(), msg, &resp); !errors.Is(err, simnet.ErrTooLarge) {
		t.Fatalf("request of %d bytes: want ErrTooLarge, got %v", bound+1, err)
	}
	if !inTable(a, b.Self()) {
		t.Fatal("a size verdict evicted the live receiver")
	}
	last.Field = last.Field[1:]
	if err := a.call(ctx, b.Self(), msg, &resp); err != nil || resp.Kind != wire.KindStoreAck {
		t.Fatalf("request of %d bytes = %v, %v; want it stored", bound, resp.Kind, err)
	}
}
