package core_test

import (
	"context"
	"fmt"
	"testing"

	"dharma/internal/core"
	"dharma/internal/dht"
	"dharma/internal/kademlia"
)

// BenchmarkTagDurable measures a tagging operation end to end on a fleet
// where every node group-commits to its own WAL (default options: fsync
// plus the 500µs linger). K equals the fleet size, so every write waits
// on a round of eight commits; a Tag's latency is the number of write
// rounds on its critical path times that round. Each op tags one of 64
// seeded resources (4 tags each at the start) with a new tag, so it
// carries 4 or 5 (k) reverse arcs.
func BenchmarkTagDurable(b *testing.B) {
	cl, err := kademlia.NewCluster(kademlia.ClusterConfig{
		N:       8,
		Node:    kademlia.Config{K: 8, Alpha: 3},
		Seed:    1,
		DataDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Shutdown()
	e, err := core.NewEngine(dht.NewOverlay(cl.Nodes[0], nil), core.Config{Mode: core.Approximated, K: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		r := fmt.Sprintf("r%d", i)
		tags := make([]string, 4)
		for j := range tags {
			tags[j] = fmt.Sprintf("s%d", (i+j)%16)
		}
		if err := e.InsertResource(ctx, r, "uri:"+r, tags...); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Tag(ctx, fmt.Sprintf("r%d", i%64), fmt.Sprintf("t%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}
