package kademlia

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

func testCluster(t *testing.T, n int, cfg Config) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{N: n, Node: cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestMaintainerPoolCoversLateJoiner: a block held ONLY by a node that
// joined after the overlay formed must still reach its replica set.
// Rounds run over each membership Snapshot, so the joiner gets a round
// of its own — and only the joiner's round can republish its block.
func TestMaintainerPoolCoversLateJoiner(t *testing.T) {
	cl := testCluster(t, 8, Config{K: 3, Alpha: 2})
	joiner, err := cl.AddNode(context.Background(), Config{K: 3, Alpha: 2}, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := kadid.HashString("late-joiner-block")
	if err := joiner.LocalStore().Append(context.Background(), key, []wire.Entry{{Field: "f", Count: 5}}); err != nil {
		t.Fatal(err)
	}

	for _, n := range cl.Snapshot() {
		n.MaintainOnce(context.Background())
	}
	for _, n := range cl.Snapshot() {
		if n != joiner && n.LocalStore().Has(key) {
			return // the joiner's round republished
		}
	}
	t.Fatal("late joiner's block never republished — joiner ran no round")
}

// TestMaintainOnceReportMatchesCounters: with writes landing on the node
// while its rounds run, each round's report equals the change in the
// node's cumulative anti-entropy counters over that round, so an owner
// can log the report instead of diffing the counters.
func TestMaintainOnceReportMatchesCounters(t *testing.T) {
	cl := testCluster(t, 8, Config{K: 3, Alpha: 2})
	n := cl.Nodes[3]
	ctx := context.Background()
	keys := make([]kadid.ID, 16)
	for i := range keys {
		keys[i] = kadid.HashString(fmt.Sprintf("report|%d", i))
		if err := n.LocalStore().Append(ctx, keys[i], []wire.Entry{{Field: "f", Count: 1}}); err != nil {
			t.Fatal(err)
		}
	}

	// A writer keeps bumping a quarter of the blocks, locally and through
	// the overlay, for as long as the rounds run. It signals each local
	// append on wrote, so every round can wait for one: a round takes
	// well under a millisecond, and left to the scheduler the writer
	// sometimes lands nothing between rounds, leaving no block to suppress.
	stop := make(chan struct{})
	wrote := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key, e := keys[i%4], []wire.Entry{{Field: fmt.Sprintf("f%d", i%3), Count: 1}}
			if i%2 == 0 {
				n.LocalStore().Append(ctx, key, e) //nolint:errcheck // in-memory store
				select {
				case wrote <- struct{}{}:
				default:
				}
			} else {
				cl.Nodes[0].Store(ctx, key, e) //nolint:errcheck // best-effort concurrent load
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var total MaintenanceRound
	for i := 0; i < 4; i++ {
		// Drop a signal from before the previous round ended. The next
		// append may still predate the round's end; the one after it
		// cannot.
		select {
		case <-wrote:
		default:
		}
		<-wrote
		<-wrote
		c := n.Counters()
		synced, suppressed, skipped := c.Synced.Load(), c.Suppressed.Load(), c.Skipped.Load()
		r := n.MaintainOnce(ctx)
		synced, suppressed, skipped = c.Synced.Load()-synced, c.Suppressed.Load()-suppressed, c.Skipped.Load()-skipped
		if int64(r.Synced) != synced || int64(r.Suppressed) != suppressed || int64(r.Skipped) != skipped {
			t.Fatalf("round %d report %+v, counters moved synced=%d suppressed=%d skipped=%d", i, r,
				synced, suppressed, skipped)
		}
		total.Synced += r.Synced
		total.Suppressed += r.Suppressed
		total.Skipped += r.Skipped
		total.Acks += r.Acks
	}
	close(stop)
	wg.Wait()
	// Every decision kind occurred, so the equality was tested on each.
	if total.Synced == 0 || total.Suppressed == 0 || total.Skipped == 0 || total.Acks == 0 {
		t.Fatalf("rounds never exercised every decision: %+v", total)
	}
}

// TestHandoffReportsUnacked: a departing node whose peers are all
// unreachable reports every block as unacknowledged instead of
// silently dropping them.
func TestHandoffReportsUnacked(t *testing.T) {
	cl := testCluster(t, 5, Config{K: 3, Alpha: 2})
	leaver := cl.Nodes[4]
	keys := []kadid.ID{kadid.HashString("h1"), kadid.HashString("h2"), kadid.HashString("h3")}
	for _, k := range keys {
		if err := leaver.LocalStore().Append(context.Background(), k, []wire.Entry{{Field: "f", Count: 1}}); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy overlay: the handoff lands and reports nothing.
	blocks, acks, err := leaver.Handoff(context.Background())
	if err != nil || blocks != len(keys) || acks == 0 {
		t.Fatalf("healthy handoff: blocks=%d acks=%d err=%v", blocks, acks, err)
	}

	// Kill every peer: nothing can ack, the report must name the loss.
	for _, n := range cl.Nodes[:4] {
		cl.Net.SetDown(simnet.Addr(n.Self().Addr), true)
	}
	blocks, acks, err = leaver.Handoff(context.Background())
	if !errors.Is(err, ErrHandoffIncomplete) {
		t.Fatalf("handoff into a dead overlay: err=%v, want ErrHandoffIncomplete", err)
	}
	if blocks != len(keys) || acks != 0 {
		t.Fatalf("handoff into a dead overlay: blocks=%d acks=%d", blocks, acks)
	}

	// RemoveNode surfaces the same report while still removing.
	for _, n := range cl.Nodes[:4] {
		cl.Net.SetDown(simnet.Addr(n.Self().Addr), false)
	}
	cl2 := testCluster(t, 4, Config{K: 3, Alpha: 2})
	victim := cl2.Nodes[3]
	if err := victim.LocalStore().Append(context.Background(), kadid.HashString("solo"), []wire.Entry{{Field: "f", Count: 2}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range cl2.Nodes[:3] {
		cl2.Net.SetDown(simnet.Addr(n.Self().Addr), true)
	}
	n, err := cl2.RemoveNode(context.Background(), 3)
	if n == nil {
		t.Fatalf("RemoveNode failed outright: %v", err)
	}
	if !errors.Is(err, ErrHandoffIncomplete) {
		t.Fatalf("RemoveNode error = %v, want ErrHandoffIncomplete", err)
	}
	if cl2.Len() != 3 {
		t.Fatalf("membership %d after leave, want 3", cl2.Len())
	}
}
