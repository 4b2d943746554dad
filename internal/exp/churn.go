package exp

import (
	"context"

	"fmt"
	"math/rand"
	"strings"

	"dharma"
	"dharma/internal/core"
	"dharma/internal/dht"
)

// ChurnResult is the A6 extension experiment: block availability under
// node churn, with and without replica maintenance (republish). The
// paper defers "emulative and evolutionary analysis" to future work;
// this measures the part a deployment cares about most — whether the
// folksonomy index survives peers leaving.
type ChurnResult struct {
	Nodes, ProbeKeys, Cycles   int
	KillPerCycle, JoinPerCycle int

	Live         []int     // live node count after each cycle
	AvailWith    []float64 // probe availability with republish
	AvailWithout []float64 // probe availability without
}

// RunChurn publishes a workload slice on a live overlay, then runs
// churn cycles (kill `kill` random nodes, join `join` fresh ones per
// cycle), measuring the retrievability of the most popular tags' t̂
// blocks. The scenario runs twice from identical seeds: once with every
// live node republishing each cycle, once without any maintenance.
func RunChurn(w *Workbench, nodes, annotations, cycles, kill, join, replication int) (*ChurnResult, error) {
	if replication <= 0 {
		replication = 8
	}
	res := &ChurnResult{
		Nodes: nodes, Cycles: cycles,
		KillPerCycle: kill, JoinPerCycle: join,
	}

	run := func(republish bool) ([]int, []float64, error) {
		sys, err := dharma.NewSystem(dharma.Config{
			Nodes: nodes, Mode: dharma.Approximated, K: 5, Replication: replication, Seed: w.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		defer sys.Shutdown()
		prober := sys.Peer(0)
		// The availability probes read raw blocks through prober's node.
		probe := dht.NewOverlay(prober.Node, prober.Node.Identity())
		cl := sys.Cluster()
		ctx := context.Background()

		tagPop, err := w.publish(prober, annotations)
		if err != nil {
			return nil, nil, err
		}

		// Probe the t̂ blocks of the most popular tags in the slice.
		probes := topTags(tagPop, 30)
		res.ProbeKeys = len(probes)

		rng := rand.New(rand.NewSource(w.Seed + 5))
		alive := make([]bool, nodes)
		for i := range alive {
			alive[i] = true
		}
		liveCount := nodes
		var liveSeries []int
		var avail []float64

		for cycle := 0; cycle < cycles; cycle++ {
			// Kill: never node 0, which hosts the probing engine.
			for k := 0; k < kill; k++ {
				for tries := 0; tries < 10*nodes; tries++ {
					i := 1 + rng.Intn(len(cl.Nodes)-1)
					if alive[i] {
						alive[i] = false
						liveCount--
						sys.SetDown(i, true)
						break
					}
				}
			}
			// Join fresh nodes via node 0, configured like the founders.
			for j := 0; j < join; j++ {
				if _, err := cl.AddNode(ctx, prober.Node.Config(), w.Seed+int64(1000+cycle*join+j), 0); err != nil {
					return nil, nil, err
				}
				alive = append(alive, true)
				liveCount++
			}
			if republish {
				for i, n := range cl.Nodes {
					if alive[i] {
						n.AntiEntropyOnce(ctx, 1)
					}
				}
			}

			found := 0
			for _, tag := range probes {
				if _, err := probe.Get(ctx, core.BlockKey(tag, core.BlockTagNeighbors), 1); err == nil {
					found++
				}
			}
			liveSeries = append(liveSeries, liveCount)
			avail = append(avail, float64(found)/float64(len(probes)))
		}
		return liveSeries, avail, nil
	}

	var err error
	if res.Live, res.AvailWith, err = run(true); err != nil {
		return nil, err
	}
	if _, res.AvailWithout, err = run(false); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the availability series.
func (r *ChurnResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension A6 — availability under churn (%d nodes, -%d/+%d per cycle, %d probe blocks)\n",
		r.Nodes, r.KillPerCycle, r.JoinPerCycle, r.ProbeKeys)
	fmt.Fprintf(&b, "%6s %6s %18s %18s\n", "cycle", "live", "avail (republish)", "avail (none)")
	for i := range r.AvailWith {
		fmt.Fprintf(&b, "%6d %6d %18.3f %18.3f\n", i+1, r.Live[i], r.AvailWith[i], r.AvailWithout[i])
	}
	b.WriteString("(replica maintenance keeps the index retrievable as the original holders disappear)\n")
	return b.String()
}
