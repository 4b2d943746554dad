package kademlia

import (
	"context"
	"math/rand"
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
