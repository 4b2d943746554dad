package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dharma/internal/dht"
	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/persist"
	"dharma/internal/wire"
)

// TestDurableWipeRecover is the process-crash half of the availability
// invariant: on a durable cluster a crash is a real kill (the node's
// WAL dies mid-flight, its memory is abandoned) and a revival is a
// restart that recovers only what the disk holds. Acknowledged writes
// must survive waves of such wipe-and-recover cycles — including waves
// that take down EVERY holder of a block at once, which the pure
// detach-model chaos test could never distinguish from a warm standby.
func TestDurableWipeRecover(t *testing.T) {
	const (
		nodes   = 16
		clients = 2
		seed    = 4242
	)
	cl, err := kademlia.NewCluster(kademlia.ClusterConfig{
		N:       nodes,
		Node:    kademlia.Config{K: 4, Alpha: 3, MinStoreAcks: 2},
		Seed:    seed,
		DataDir: t.TempDir(),
		Persist: persist.Options{Sync: persist.SyncNone, SegmentBytes: 1 << 14, CompactBytes: 1 << 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()

	ledger := NewLedger()
	stores := make([]*Recording, clients)
	for i := range stores {
		stores[i] = NewRecording(dht.NewOverlay(cl.NodeAt(i), nil), ledger)
	}

	rng := rand.New(rand.NewSource(seed))
	write := func(round, i int) {
		st := stores[rng.Intn(clients)]
		key := kadid.HashString(fmt.Sprintf("blk%d", rng.Intn(24)))
		// Failures are fine (a quorum may be down mid-wave); only
		// acknowledged writes enter the ledger, and only those are owed.
		st.Append(context.Background(), key, []wire.Entry{ //nolint:errcheck
			{Field: fmt.Sprintf("f%d", rng.Intn(6)), Count: uint64(1 + rng.Intn(5))},
		})
	}

	for round := 0; round < 4; round++ {
		for i := 0; i < 30; i++ {
			write(round, i)
		}

		// Kill a wave of storage nodes process-style (clients are
		// protected: they are the ledger's readers and writers).
		var wave []*kademlia.Node
		kills := 3 + rng.Intn(3)
		for k := 0; k < kills && cl.Len() > clients+2; k++ {
			idx := clients + rng.Intn(cl.Len()-clients)
			n, err := cl.Crash(idx)
			if err != nil {
				continue
			}
			wave = append(wave, n)
		}

		// More traffic while the wave is down: acked writes here are
		// owed too (the quorum that acked them is still alive).
		for i := 0; i < 15; i++ {
			write(round, i)
		}

		// Restart the wave from disk.
		for _, n := range wave {
			if _, err := cl.Revive(context.Background(), n, 0); err != nil {
				t.Fatalf("round %d: revive: %v", round, err)
			}
		}

		if viol := AntiEntropyAndCheck(context.Background(), cl, ledger, 2, 1); len(viol) != 0 {
			t.Fatalf("round %d: %d of %d acknowledged (block,field) obligations lost after wipe-and-recover: %v",
				round, len(viol), ledger.Fields(), viol[:min(len(viol), 5)])
		}
	}
	if ledger.Fields() == 0 {
		t.Fatal("test exercised nothing: no acknowledged writes recorded")
	}
}
