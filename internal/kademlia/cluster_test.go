package kademlia

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// TestAddNodeConcurrent joins nodes from many goroutines and checks
// that every member got a distinct address and is reachable — a
// duplicate address would silently shadow an earlier endpoint on the
// simulated network.
func TestAddNodeConcurrent(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 8, Node: Config{K: 4, Alpha: 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	const extra = 8
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cl.AddNode(context.Background(), Config{K: 4, Alpha: 2}, int64(100+i), i%8); err != nil {
				t.Errorf("AddNode %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	if got := cl.Len(); got != 8+extra {
		t.Fatalf("Len = %d, want %d", got, 8+extra)
	}
	seen := make(map[string]bool)
	for _, n := range cl.Snapshot() {
		addr := n.Self().Addr
		if seen[addr] {
			t.Fatalf("duplicate address %q", addr)
		}
		seen[addr] = true
	}
	for _, n := range cl.Snapshot()[1:] {
		if !cl.NodeAt(0).Ping(context.Background(), n.Self()) {
			t.Errorf("node %s unreachable after concurrent join", n.Self().Addr)
		}
	}
}

// TestNoAddressReuseAfterRemoval is the regression for the minted
// counter: removals shrink the membership, and a join sized off the
// membership length would re-mint a live node's address, silently
// shadowing its endpoint on the simulated network.
func TestNoAddressReuseAfterRemoval(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 8, Node: Config{K: 4, Alpha: 2}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]*Node)
	record := func() {
		for _, n := range cl.Snapshot() {
			addr := n.Self().Addr
			if prev, ok := used[addr]; ok && prev != n {
				t.Fatalf("address %q reissued to a different node", addr)
			}
			used[addr] = n
		}
	}
	record()

	// Shrink below the original size, then grow past it again.
	for i := 0; i < 3; i++ {
		if _, err := cl.RemoveNode(context.Background(), cl.Len()-1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Crash(cl.Len() - 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := cl.AddNode(context.Background(), Config{K: 4, Alpha: 2}, int64(500+i), 0); err != nil {
			t.Fatal(err)
		}
		record()
	}
}

// TestClusterChurnConcurrent runs joins, graceful leaves, crashes,
// revives and membership reads all at once, against a cluster under
// RPC load — the shape TestChurnUnderLoad produces. It checks
// the reader-facing invariants: NodeAt never returns a node outside the
// snapshot contract, addresses stay unique, and the overlay stays
// usable throughout.
func TestClusterChurnConcurrent(t *testing.T) {
	const protected = 2 // node 0 (bootstrap) and node 1 (load source) are off-limits
	cl, err := NewCluster(ClusterConfig{N: 12, Node: Config{K: 4, Alpha: 2}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg      sync.WaitGroup // membership writers and readers
		loadWg  sync.WaitGroup // the load goroutine, stopped last
		stop    atomic.Bool
		crashMu sync.Mutex
		crashed []*Node
	)

	// Load: node 1 stores and reads blocks the whole time.
	loadWg.Add(1)
	go func() {
		defer loadWg.Done()
		for i := 0; !stop.Load(); i++ {
			key := kadid.HashString(fmt.Sprintf("churnload%d", i%32))
			cl.NodeAt(1).Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 1}})
			cl.NodeAt(1).FindValue(context.Background(), key, 0)
		}
	}()

	// Membership writers. Only these goroutines shrink the membership;
	// each picks indices past the protected prefix and tolerates stale
	// picks (the cluster bounds-checks under its lock).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 12; i++ {
				n := cl.Len()
				switch rng.Intn(4) {
				case 0:
					if _, err := cl.AddNode(context.Background(), Config{K: 4, Alpha: 2}, rng.Int63(), 0); err != nil {
						t.Errorf("AddNode: %v", err)
					}
				case 1:
					if n > protected+2 {
						cl.RemoveNode(context.Background(), protected+rng.Intn(n-protected)) // stale index errors are fine
					}
				case 2:
					if n > protected+2 {
						if node, err := cl.Crash(protected + rng.Intn(n-protected)); err == nil {
							crashMu.Lock()
							crashed = append(crashed, node)
							crashMu.Unlock()
						}
					}
				default:
					crashMu.Lock()
					var node *Node
					if len(crashed) > 0 {
						node = crashed[len(crashed)-1]
						crashed = crashed[:len(crashed)-1]
					}
					crashMu.Unlock()
					if node != nil {
						if _, err := cl.Revive(context.Background(), node, 0); err != nil {
							t.Errorf("Revive: %v", err)
						}
					}
				}
			}
		}(g)
	}

	// Membership readers: Snapshot/NodeAt/Len must stay coherent while
	// the writers churn — no panics, no nil members inside a snapshot,
	// no duplicate addresses within one snapshot.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				snap := cl.Snapshot()
				if len(snap) != 0 && snap[0] == nil {
					t.Error("snapshot contains nil member")
					return
				}
				seen := make(map[string]bool, len(snap))
				for _, n := range snap {
					addr := n.Self().Addr
					if seen[addr] {
						t.Errorf("duplicate address %q within one snapshot", addr)
						return
					}
					seen[addr] = true
				}
				// NodeAt tolerates stale indices by returning nil.
				if n := cl.NodeAt(cl.Len() + 10); n != nil {
					t.Error("NodeAt out of range returned a node")
					return
				}
				if n := cl.NodeAt(0); n == nil {
					t.Error("bootstrap node vanished")
					return
				}
			}
		}()
	}

	wg.Wait()
	stop.Store(true)
	loadWg.Wait()

	// Final coherence: protected prefix intact, every member reachable,
	// addresses unique across the final snapshot.
	if cl.Len() < protected {
		t.Fatalf("membership shrank to %d", cl.Len())
	}
	for _, n := range cl.Snapshot()[1:] {
		if !cl.NodeAt(0).Ping(context.Background(), n.Self()) {
			t.Errorf("member %s unreachable after churn", n.Self().Addr)
		}
	}
}
