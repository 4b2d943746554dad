package kademlia

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/persist"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// flightGauge records the peak number of handlers in flight across every
// node it wraps, overall and for STOREs alone. With hold set, the first
// STORE to arrive waits (at most 2 s) for a second STORE to be in
// flight, so an overlap check does not depend on how the scheduler
// happened to interleave the sends.
type flightGauge struct {
	hold bool

	all, allPeak    atomic.Int64
	stores, storePk atomic.Int64
	held            atomic.Bool
	second          chan struct{} // closed once two STOREs are in flight
	secondOnce      sync.Once
}

func newFlightGauge(hold bool) *flightGauge {
	return &flightGauge{hold: hold, second: make(chan struct{})}
}

// raise increments cur, lifts peak to it and returns the new count.
func raise(cur, peak *atomic.Int64) int64 {
	v := cur.Add(1)
	for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
	}
	return v
}

// wrap re-attaches every member of cl behind the gauge.
func (g *flightGauge) wrap(cl *Cluster) {
	for _, n := range cl.Nodes {
		h := simnet.HandlerFunc(func(ctx context.Context, from simnet.Addr, payload []byte) ([]byte, error) {
			raise(&g.all, &g.allPeak)
			defer g.all.Add(-1)
			if m, err := wire.Decode(payload); err == nil && m.Kind == wire.KindStore {
				now := raise(&g.stores, &g.storePk)
				defer g.stores.Add(-1)
				if now >= 2 {
					g.secondOnce.Do(func() { close(g.second) })
				}
				if g.hold && g.held.CompareAndSwap(false, true) {
					select {
					case <-g.second:
					case <-time.After(2 * time.Second):
					}
				}
			}
			return n.HandleRPC(ctx, from, payload)
		})
		n.Attach(cl.Net.Attach(simnet.Addr(n.Self().Addr), h))
	}
}

// TestFanOutOverlapsOnlyWhereAReplicaCanWait pins where a fan-out runs
// on the caller. On an in-memory cluster under a context that cannot
// end, a Store's and a FindValue's exchanges run one at a time. On a
// durable cluster, or under a cancellable context, a Store's remote
// STOREs are in flight together, which is what lets the writer commit
// its own replica while they are.
func TestFanOutOverlapsOnlyWhereAReplicaCanWait(t *testing.T) {
	entries := []wire.Entry{{Field: "f", Count: 1}}
	key := kadid.HashString("fanout|1")

	t.Run("in-memory/background", func(t *testing.T) {
		cl := newTestCluster(t, 16, 61)
		g := newFlightGauge(false)
		g.wrap(cl)
		ctx := context.Background()
		if acks, err := cl.Nodes[3].Store(ctx, key, entries); err != nil || acks != 8 {
			t.Fatalf("Store = %d acks, err %v; want 8", acks, err)
		}
		if _, err := cl.Nodes[5].FindValue(ctx, key, 0); err != nil {
			t.Fatalf("FindValue: %v", err)
		}
		if peak := g.allPeak.Load(); peak != 1 {
			t.Fatalf("peak handlers in flight = %d, want 1", peak)
		}
	})

	t.Run("durable/background", func(t *testing.T) {
		cl, err := NewCluster(ClusterConfig{
			N: 16, Node: Config{K: 8, Alpha: 3}, Seed: 61,
			DataDir: t.TempDir(), Persist: persist.Options{Sync: persist.SyncNone},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Shutdown)
		g := newFlightGauge(true)
		g.wrap(cl)
		if _, err := cl.Nodes[3].Store(context.Background(), key, entries); err != nil {
			t.Fatal(err)
		}
		if peak := g.storePk.Load(); peak < 2 {
			t.Fatalf("peak STOREs in flight = %d, want at least 2", peak)
		}
	})

	t.Run("in-memory/cancellable", func(t *testing.T) {
		cl := newTestCluster(t, 16, 61)
		g := newFlightGauge(true)
		g.wrap(cl)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if _, err := cl.Nodes[3].Store(ctx, key, entries); err != nil {
			t.Fatal(err)
		}
		if peak := g.storePk.Load(); peak < 2 {
			t.Fatalf("peak STOREs in flight = %d, want at least 2", peak)
		}
	})
}

// TestLookupRecallUnderDrop: a lookup re-probes a true-closest node whose
// probe was lost instead of leaving it out of the answer. 400 lookups
// from random origins on a wired 300-node overlay; the truth is the 8
// closest nodes other than the origin, since a lookup never returns its
// own node. Without the second chance the miss rate tracks the drop
// rate one for one.
func TestLookupRecallUnderDrop(t *testing.T) {
	for _, tc := range []struct {
		drop, maxMissed float64
	}{
		{0.05, 0.01},
		{0.01, 0.002},
	} {
		cl, err := NewCluster(ClusterConfig{
			N:         300,
			Node:      Config{K: 8, Alpha: 3},
			Net:       simnet.Config{DropRate: tc.drop, Seed: 5},
			Seed:      42,
			Bootstrap: BootstrapWired,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		missed, total := 0, 0
		for range 400 {
			target := kadid.Random(rng)
			origin := cl.Nodes[rng.Intn(len(cl.Nodes))]
			got := make(map[kadid.ID]bool)
			for _, c := range origin.IterativeFindNode(context.Background(), target) {
				got[c.ID] = true
			}
			truth := 0
			for _, c := range cl.ClosestGroundTruth(target, 9) {
				if c.ID == origin.Self().ID || truth == 8 {
					continue
				}
				truth++
				if !got[c.ID] {
					missed++
				}
			}
			total += truth
		}
		rate := float64(missed) / float64(total)
		t.Logf("drop %.0f%%: %d of %d true-closest nodes left out (%.2f%%), %.2f RPCs per lookup",
			tc.drop*100, missed, total, rate*100, float64(cl.Net.Counters().Calls)/400)
		if rate > tc.maxMissed {
			t.Errorf("drop %.0f%%: %.2f%% of the true-closest nodes left out, want at most %.1f%%",
				tc.drop*100, rate*100, tc.maxMissed*100)
		}
	}
}

// TestCachedPlacementUnderChurn guards the replica-set cache against
// misplacing writes. On a wired 300-node overlay a writer caches the
// replica sets of 200 keys; then 30 nodes join and 30 crash, the writer
// stores every key again, and 5 more nodes join. None of those joins
// moves the writer's epoch (each lands in a full bucket, among its
// spares), so the writer's next Stores, before any maintenance round,
// go to cached sets that predate the joiners. Those Stores must reach
// every true replica (the 8 closest live nodes, less the writer) that a
// fresh lookup finds, except the joiners' slots; the Stores after one
// maintenance round must reach all of them.
func TestCachedPlacementUnderChurn(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		N:         300,
		Node:      Config{K: 8, Alpha: 3},
		Seed:      43,
		Bootstrap: BootstrapWired,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	writer := cl.Nodes[17]
	keys := make([]kadid.ID, 200)
	for i := range keys {
		keys[i] = kadid.HashString(fmt.Sprintf("placement|%d", i))
		if _, err := writer.Store(ctx, keys[i], []wire.Entry{{Field: "before", Count: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(writer.replicas.sets) == 0 {
		t.Fatal("the writer cached no replica set before the churn")
	}

	rng := rand.New(rand.NewSource(12))
	for i := range 30 {
		if _, err := cl.AddNode(ctx, Config{K: 8, Alpha: 3}, int64(5000+i), rng.Intn(cl.Len())); err != nil {
			t.Fatal(err)
		}
	}
	for crashed := 0; crashed < 30; {
		if i := rng.Intn(cl.Len()); cl.NodeAt(i) != writer {
			if _, err := cl.Crash(i); err != nil {
				t.Fatal(err)
			}
			crashed++
		}
	}
	byID := make(map[kadid.ID]*Node)
	for _, n := range cl.Snapshot() {
		byID[n.Self().ID] = n
	}
	// reached counts the true replicas of every key that hold field.
	reached := func(field string) (stored, total int) {
		for _, key := range keys {
			for _, c := range cl.ClosestGroundTruth(key, 8) {
				if c.ID == writer.Self().ID {
					continue
				}
				total++
				if es, ok := byID[c.ID].LocalStore().Get(key, 0); ok && slices.ContainsFunc(es, func(e wire.Entry) bool { return e.Field == field }) {
					stored++
				}
			}
		}
		return stored, total
	}

	// Between the churn and the next maintenance round.
	for _, key := range keys {
		if _, err := writer.Store(ctx, key, []wire.Entry{{Field: "rewarm", Count: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	epoch, joined := writer.Table().Epoch(), make(map[kadid.ID]bool)
	for i := range 5 {
		n, err := cl.AddNode(ctx, Config{K: 8, Alpha: 3}, int64(6000+i), rng.Intn(cl.Len()))
		if err != nil {
			t.Fatal(err)
		}
		joined[n.Self().ID], byID[n.Self().ID] = true, n
	}
	if writer.Table().Epoch() != epoch {
		t.Fatal("a join moved the writer's epoch: the Stores below would not measure cached sets")
	}
	_, hits0 := walksAndHits(writer)
	for _, key := range keys {
		if _, err := writer.Store(ctx, key, []wire.Entry{{Field: "between", Count: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	_, hits := walksAndHits(writer)
	between, total := reached("between")

	writer.MaintainOnce(ctx)
	for _, key := range keys {
		if _, err := writer.Store(ctx, key, []wire.Entry{{Field: "after", Count: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := reached("after")
	found, joinerSlots := 0, 0
	for _, key := range keys {
		walked := make(map[kadid.ID]bool)
		for _, c := range writer.IterativeFindNode(ctx, key) {
			walked[c.ID] = true
		}
		for _, c := range cl.ClosestGroundTruth(key, 8) {
			if c.ID != writer.Self().ID && walked[c.ID] {
				found++
				if joined[c.ID] {
					joinerSlots++
				}
			}
		}
	}
	t.Logf("of %d true replicas: %d reached by Stores before the maintenance round (%d of %d from the cache), %d by Stores after it, %d found by a fresh lookup, %d of them joiners",
		total, between, hits-hits0, len(keys), after, found, joinerSlots)
	if between < found-joinerSlots {
		t.Errorf("Store before the round reached %d of %d true replicas; a fresh lookup found %d, %d of them joiners", between, total, found, joinerSlots)
	}
	if after < found {
		t.Errorf("Store after the round reached %d of %d true replicas, a fresh lookup %d", after, total, found)
	}
}
