package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dharma/internal/dht"
	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// TestAntiEntropyHotTagBytes prices one maintenance round on the
// paper's hot-tag regime — 32 nodes, k=8, 64 hot blocks holding 49,964
// entries in Zipf-skewed shares, so the hottest blocks are the widest —
// and then crashes a quarter of the overlay.
//
// The full-push baseline (every holder sending every block, whole, to
// the rest of that block's k-closest set) is computed from the encoded
// REPLICATE sizes. The summary sweep, AntiEntropyOnce(ctx, 1) with the
// same coverage, is run and metered, and must cost at most a tenth of
// it. After the crash wave, anti-entropy rounds alone must leave every
// acknowledged write readable.
func TestAntiEntropyHotTagBytes(t *testing.T) {
	const (
		nodes, k, blocks = 32, 8, 64
		entryBudget      = 50000
		seed             = 1
	)
	ctx := context.Background()
	cl, err := kademlia.NewCluster(kademlia.ClusterConfig{
		N:    nodes,
		Node: kademlia.Config{K: k, Alpha: 3},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Shutdown)

	// Block b gets a 1/(b+1) share of the entry budget. Every
	// acknowledged write becomes a ledger obligation for the crash check.
	rng := rand.New(rand.NewSource(seed))
	ledger := NewLedger()
	writer := NewRecording(dht.NewOverlay(cl.NodeAt(0), nil), ledger)
	var wsum float64
	for b := 0; b < blocks; b++ {
		wsum += 1.0 / float64(b+1)
	}
	seeded := 0
	for b := 0; b < blocks; b++ {
		n := min(max(int(float64(entryBudget)*(1.0/float64(b+1))/wsum), 1), wire.MaxListLen)
		batch := make([]wire.Entry, n)
		for i := range batch {
			batch[i] = wire.Entry{Field: fmt.Sprintf("f%05d", i), Count: uint64(1 + rng.Intn(100))}
		}
		key := kadid.HashString(fmt.Sprintf("hot-tag-%03d|3", b))
		if err := writer.Append(ctx, key, batch); err != nil {
			t.Fatalf("seed block %d: %v", b, err)
		}
		seeded += n
	}
	if seeded != 49964 {
		t.Fatalf("seeded %d entries, want the 49,964 of the hot-tag mix", seeded)
	}

	var full int64
	for _, n := range cl.Snapshot() {
		self := n.Self()
		for _, key := range n.LocalStore().Keys() {
			entries, _ := n.LocalStore().Get(key, 0)
			size := int64(len(wire.Encode(&wire.Message{
				Kind: wire.KindReplicate, From: self, Target: key, Entries: entries,
			})))
			for _, c := range cl.ClosestGroundTruth(key, k) {
				if c.ID != self.ID {
					full += size
				}
			}
		}
	}

	bytesSent := func() (sum int64) {
		for _, n := range cl.Snapshot() {
			sum += n.AntiEntropy().BytesSent
		}
		return sum
	}
	before := bytesSent()
	for _, n := range cl.Snapshot() {
		n.AntiEntropyOnce(ctx, 1)
	}
	summary := bytesSent() - before
	t.Logf("bytes/round: full push %d (computed), summary sweep %d, ratio %.1fx",
		full, summary, float64(full)/float64(summary))
	if full != 33793298 {
		t.Errorf("computed full-push sweep = %d B, want 33,793,298 (the hot-tag mix changed)", full)
	}
	if summary*10 > full {
		t.Errorf("summary sweep %d B/round is more than a tenth of the full push's %d: summary sync regressed",
			summary, full)
	}

	// Crash 25% of the overlay (never node 0, which reads for the check)
	// and heal with timer-driven anti-entropy rounds alone.
	crashRng := rand.New(rand.NewSource(seed + 1))
	for c := 0; c < nodes/4; c++ {
		if _, err := cl.Crash(1 + crashRng.Intn(cl.Len()-1)); err != nil {
			t.Fatalf("crash %d: %v", c, err)
		}
	}
	if viol := AntiEntropyAndCheck(ctx, cl, ledger, 3, 2); len(viol) != 0 {
		t.Fatalf("lost %d of %d acknowledged (block,field) obligations after a %d-node crash wave; first: %v",
			len(viol), ledger.Fields(), nodes/4, viol[0])
	}
}
