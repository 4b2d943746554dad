// Musicfolk replays a synthetic Last.fm-like workload (the paper's
// evaluation domain) through a live DHARMA overlay and then explores it
// with all three navigation strategies of §V-C, reporting path lengths
// and per-node load — a miniature of the full evaluation pipeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"dharma"
	"dharma/internal/dataset"
)

func main() {
	nodes := flag.Int("nodes", 24, "overlay size")
	k := flag.Int("k", 3, "connection parameter (Approximation A)")
	annotations := flag.Int("annotations", 1500, "annotations to publish")
	seed := flag.Int64("seed", 7, "workload seed")
	flag.Parse()

	sys, err := dharma.NewSystem(dharma.Config{Nodes: *nodes, Mode: dharma.Approximated, K: *k, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()
	ctx := context.Background()

	// Generate a workload shaped like the paper's crawl (power-law
	// degrees, singleton periphery, popular core) and publish a slice.
	d := dataset.Generate(dataset.Tiny(*seed))
	schedule := d.Shuffled(*seed + 1)
	if len(schedule) > *annotations {
		schedule = schedule[:*annotations]
	}

	fmt.Printf("publishing %d annotations from %d users onto %d nodes (k=%d)...\n",
		len(schedule), d.Config.Users, sys.Size(), *k)
	inserted := map[string]bool{}
	popularity := map[string]int{}
	for i, a := range schedule {
		peer := sys.Peer(i % sys.Size()) // tagging load spread over peers
		if !inserted[a.Resource] {
			if err := peer.InsertResource(ctx, a.Resource, "lastfm:"+a.Resource, nil); err != nil {
				log.Fatal(err)
			}
			inserted[a.Resource] = true
		}
		if err := peer.Tag(ctx, a.Resource, a.Tag); err != nil {
			log.Fatal(err)
		}
		popularity[a.Tag]++
	}

	// The most popular tag is the worst-case navigation start (§V-C).
	type tagCount struct {
		tag string
		n   int
	}
	var pop []tagCount
	for t, n := range popularity {
		pop = append(pop, tagCount{t, n})
	}
	sort.Slice(pop, func(i, j int) bool {
		if pop[i].n != pop[j].n {
			return pop[i].n > pop[j].n
		}
		return pop[i].tag < pop[j].tag
	})
	start := pop[0].tag
	fmt.Printf("most popular tag: %q (%d annotations)\n\n", start, pop[0].n)

	explorer := sys.Peer(0)
	for _, strat := range []dharma.Strategy{dharma.Last, dharma.Random, dharma.First} {
		nav, err := explorer.Navigate(ctx, start, strat, dharma.NavOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s strategy: %2d steps  path=%v\n", strat, nav.Steps(), nav.Path)
		fmt.Printf("        stopped: %s, %d resources remain\n", nav.Reason, len(nav.FinalResources))
	}

	// Per-node load: the hotspot picture of §V.
	fmt.Printf("\noverlay load (top 5 of %d nodes by requests served):\n", sys.Size())
	busiest := append([]*dharma.Peer(nil), sys.Peers()...)
	served := make(map[*dharma.Peer]int64, len(busiest))
	for _, p := range busiest {
		served[p] = p.Stats().RPCServed
	}
	sort.Slice(busiest, func(i, j int) bool {
		if a, b := served[busiest[i]], served[busiest[j]]; a != b {
			return a > b
		}
		return busiest[i].Node.Self().Addr < busiest[j].Node.Self().Addr
	})
	for _, p := range busiest[:min(5, len(busiest))] {
		fmt.Printf("  %-8s served %6d requests\n", p.Node.Self().Addr, served[p])
	}
	c := sys.Network().Counters()
	fmt.Printf("network totals: %d RPCs, %.1f MB out\n",
		c.Calls, float64(c.BytesOut)/(1<<20))
}
