package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"dharma/internal/chaos"
	"dharma/internal/dht"
	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// runAntiEntropy is the `dharma-bench antientropy` mode: seed the
// paper's hot-tag regime (tens of thousands of entries concentrated in
// a few hot blocks), then measure maintenance bytes per round under
// three protocols on the same converged overlay:
//
//   - full-push sweep: the legacy RepublishFullOnce — every holder
//     pushes every block, whole, to its k closest nodes;
//   - summary sweep: AntiEntropyOnce with every = 1 — same coverage,
//     but replicas exchange digests first and ship data only on
//     mismatch;
//   - steady state: AntiEntropyOnce rounds with a trickle of writes —
//     per-block timers suppress recently written blocks and skip
//     settled ones, so most blocks cost nothing at all.
//
// -assert-ratio makes the run a regression gate: it exits nonzero
// unless full-push/summary bytes exceed the given ratio. The run ends
// with a 25% crash wave healed purely by anti-entropy, checked against
// a chaos ledger for zero acknowledged-write loss.
//
//	dharma-bench antientropy                         # defaults: 32 nodes, 50k entries
//	dharma-bench antientropy -assert-ratio 10        # CI regression gate
func runAntiEntropy(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("antientropy", flag.ExitOnError)
	nodes := fs.Int("nodes", 32, "overlay size")
	blocks := fs.Int("blocks", 64, "hot blocks (tag vocabulary)")
	entries := fs.Int("entries", 50000, "total entries across the hot blocks (Zipf-skewed)")
	rounds := fs.Int("rounds", 4, "steady-state anti-entropy rounds to average")
	writeFrac := fs.Float64("write-frac", 0.05, "fraction of blocks written between steady-state rounds")
	crashFrac := fs.Float64("crash", 0.25, "fraction of nodes crashed for the durability check (0 skips)")
	seed := fs.Int64("seed", 1, "run seed")
	k := fs.Int("k", 8, "replication factor")
	assertRatio := fs.Float64("assert-ratio", 0, "exit nonzero unless full-push/summary bytes-per-round exceeds this ratio (0 disables)")
	if err := fs.Parse(args); err != nil {
		fail(err)
	}

	cl, err := kademlia.NewCluster(kademlia.ClusterConfig{
		N:    *nodes,
		Node: kademlia.Config{K: *k, Alpha: 3},
		Seed: *seed,
	})
	if err != nil {
		fail(err)
	}

	// Seed the hot-tag mix through a recording store: every acknowledged
	// write becomes a ledger obligation the final crash check verifies.
	// Block b gets a Zipf-ish share of the entry budget — the skew that
	// makes whole-block pushes expensive (the hottest blocks are the
	// widest ones).
	rng := rand.New(rand.NewSource(*seed))
	ledger := chaos.NewLedger()
	writer := chaos.NewRecording(dht.NewOverlay(cl.Nodes[0], nil), ledger)
	keys := make([]kadid.ID, *blocks)
	var weights []float64
	var wsum float64
	for b := range keys {
		keys[b] = kadid.HashString(fmt.Sprintf("hot-tag-%03d|3", b))
		w := 1.0 / float64(b+1)
		weights = append(weights, w)
		wsum += w
	}
	seeded := 0
	for b, key := range keys {
		n := int(float64(*entries) * weights[b] / wsum)
		if n < 1 {
			n = 1
		}
		if n > wire.MaxListLen {
			n = wire.MaxListLen
		}
		batch := make([]wire.Entry, n)
		for i := range batch {
			batch[i] = wire.Entry{
				Field: fmt.Sprintf("f%05d", i),
				Count: uint64(1 + rng.Intn(100)),
			}
		}
		if err := writer.Append(ctx, key, batch); err != nil {
			fail(fmt.Errorf("seed block %d: %w", b, err))
		}
		seeded += n
	}
	fmt.Printf("anti-entropy bench: %d-node overlay (k=%d), %d hot blocks, %d entries seeded (seed %d)\n",
		*nodes, *k, *blocks, seeded, *seed)

	bytesTotal := func() int64 {
		var sum int64
		for _, n := range cl.Snapshot() {
			st := n.AntiEntropy()
			sum += st.BytesSent
		}
		return sum
	}

	// Protocol 1: the legacy whole-block push, every node sweeping once.
	before := bytesTotal()
	for _, n := range cl.Snapshot() {
		n.RepublishFullOnce(ctx)
	}
	fullBytes := bytesTotal() - before

	// Protocol 2: the summary sweep on the now-converged overlay. Same
	// full coverage; agreement is proven by digests instead of re-sent.
	// It also counts as each block's last sync for the timers below.
	before = bytesTotal()
	for _, n := range cl.Snapshot() {
		n.AntiEntropyOnce(ctx, 1)
	}
	summaryBytes := bytesTotal() - before

	// Protocol 3: steady state. A trickle of writes lands between
	// rounds; the timers suppress just-written blocks and skip settled
	// ones, so a round's cost tracks the write rate, not the store size.
	var steadyBytes int64
	var suppressed, skipped, synced int
	for r := 0; r < *rounds; r++ {
		for i := 0; i < int(float64(*blocks)**writeFrac)+1; i++ {
			key := keys[rng.Intn(len(keys))]
			if err := writer.Append(ctx, key, []wire.Entry{
				{Field: fmt.Sprintf("f%05d", rng.Intn(50)), Count: uint64(1 + rng.Intn(5))},
			}); err != nil {
				fail(fmt.Errorf("steady-state write: %w", err))
			}
		}
		before = bytesTotal()
		for _, n := range cl.Snapshot() {
			rr := n.AntiEntropyOnce(ctx, 0)
			suppressed += rr.Suppressed
			skipped += rr.Skipped
			synced += rr.Synced
		}
		steadyBytes += bytesTotal() - before
	}
	steadyPerRound := steadyBytes / int64(*rounds)

	fmt.Printf("  full-push sweep (RepublishFullOnce): %12d bytes/round\n", fullBytes)
	fmt.Printf("  summary sweep   (AntiEntropyOnce 1): %12d bytes/round\n", summaryBytes)
	fmt.Printf("  steady state    (AntiEntropyOnce):   %12d bytes/round  (%d synced, %d suppressed, %d skipped over %d rounds)\n",
		steadyPerRound, synced, suppressed, skipped, *rounds)

	ratio := float64(fullBytes) / float64(summaryBytes)
	if summaryBytes == 0 {
		ratio = float64(fullBytes)
	}
	fmt.Printf("  ratio full/summary = %.1fx", ratio)
	if *assertRatio > 0 {
		if ratio < *assertRatio {
			fmt.Printf("  (assert >= %.1fx FAILED)\n", *assertRatio)
			fail(fmt.Errorf("antientropy: bytes/round ratio %.1fx below the asserted %.1fx — summary sync regressed", ratio, *assertRatio))
		}
		fmt.Printf("  (assert >= %.1fx ok)\n", *assertRatio)
	} else {
		fmt.Println()
	}

	// Durability under the crash wave: kill a fraction of the overlay
	// (never node 0 — it carries the reader and the seeding engine) and
	// heal with anti-entropy rounds alone, then verify the ledger.
	if *crashFrac > 0 {
		crashes := int(float64(*nodes) * *crashFrac)
		crashRng := rand.New(rand.NewSource(*seed + 1))
		for c := 0; c < crashes; c++ {
			idx := 1 + crashRng.Intn(cl.Len()-1)
			if _, err := cl.Crash(idx); err != nil {
				fail(fmt.Errorf("crash %d: %w", c, err))
			}
		}
		violations := chaos.AntiEntropyAndCheck(ctx, cl, ledger, 3, 2)
		if len(violations) > 0 {
			fmt.Printf("  LOST WRITES after %d%% crash wave: %d of %d obligations\n",
				int(*crashFrac*100), len(violations), ledger.Fields())
			for vi, v := range violations {
				if vi >= 10 {
					fmt.Printf("    ... and %d more\n", len(violations)-vi)
					break
				}
				fmt.Printf("    %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("  crash wave: %d/%d nodes killed; anti-entropy healed the survivors — all %d acknowledged (block,field) obligations readable\n",
			crashes, *nodes, ledger.Fields())
	}
}
