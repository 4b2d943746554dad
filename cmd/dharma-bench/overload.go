package main

// The overload subcommand offers load at multiples of the deployment's
// measured capacity and checks the two protection invariants: goodput
// must not collapse past saturation (excess load is rejected early with
// BUSY, not queued into timeouts), and goroutines must return to
// baseline afterwards (no abandoned-handler leak).
//
//	dharma-bench overload                          # in-process simnet overlay
//	dharma-bench overload -mult 1,4,10 -queue-depth 64
//	dharma-bench overload -bootstrap 127.0.0.1:9000  # against a real UDP fleet

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dharma"
	"dharma/internal/admission"
	"dharma/internal/core"
	"dharma/internal/loadgen"
)

func runOverload(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("overload", flag.ExitOnError)
	nodes := fs.Int("nodes", 16, "overlay size (simnet mode)")
	multStr := fs.String("mult", "1,2,4", "offered-load multipliers relative to measured capacity, comma-separated")
	duration := fs.Duration("duration", 2*time.Second, "measured duration per multiplier")
	calibrate := fs.Duration("calibrate", time.Second, "closed-loop capacity calibration duration")
	workers := fs.Int("workers", 8, "closed-loop calibration workers")
	opTimeout := fs.Duration("op-timeout", 250*time.Millisecond, "per-operation deadline during open-loop phases")
	queueDepth := fs.Int("queue-depth", admission.DefaultQueueDepth, "per-node admission queue depth (simnet mode; negative = unlimited, shows the unprotected collapse)")
	peerRate := fs.Float64("peer-rate", 0, "per-peer admitted requests/sec per node (simnet mode; 0 = unlimited)")
	k := fs.Int("k", 5, "connection parameter of Approximation A")
	seed := fs.Int64("seed", 1, "run seed")
	resources := fs.Int("resources", 64, "seeded resource universe")
	tags := fs.Int("tags", 32, "tag vocabulary size")
	tolerance := fs.Float64("tolerance", 0.2, "allowed goodput drop relative to the first multiplier (0.2 = 20%)")
	gorBudget := fs.Int("goroutine-budget", 200, "allowed goroutine growth over baseline after the run quiesces")
	bootstrapAddr := fs.String("bootstrap", "", "drive a real UDP fleet through this bootstrap node instead of an in-process simnet overlay")
	clients := fs.Int("clients", 4, "UDP client nodes generating load (-bootstrap mode)")
	out := fs.String("out", "", "CSV path for the phase table (omit to skip)")
	if err := fs.Parse(args); err != nil {
		fail(err)
	}

	var mults []float64
	for _, s := range strings.Split(*multStr, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || m <= 0 {
			fail(fmt.Errorf("bad -mult entry %q", s))
		}
		mults = append(mults, m)
	}

	cfg := loadgen.OverloadConfig{
		Multipliers:       mults,
		Duration:          *duration,
		CalibrateDuration: *calibrate,
		Workers:           *workers,
		OpTimeout:         *opTimeout,
		Resources:         *resources,
		Tags:              *tags,
		Seed:              *seed,
	}

	var engines []*core.Engine
	var serverBusy func() int64
	var sys *dharma.System
	if *bootstrapAddr != "" {
		// Real fleet: each client is its own UDP peer bootstrapped into
		// the running overlay; BUSY rejections are observed client-side
		// (the servers' own counters live in their processes).
		for i := 0; i < *clients; i++ {
			p, err := dharma.NewUDPPeer(ctx, dharma.UDPPeerConfig{
				Config: dharma.Config{
					Mode: dharma.Approximated, K: *k, Seed: *seed + int64(i),
					Replication: 20, Alpha: 3, // dharma-node serve's defaults
				},
				Listen:    "127.0.0.1:0",
				Bootstrap: []string{*bootstrapAddr},
			})
			if err != nil {
				fail(err)
			}
			defer p.Close() //nolint:errcheck // short-lived client
			engines = append(engines, p.Engine())
		}
		fmt.Printf("target: UDP fleet via %s, %d clients, k=%d\n", *bootstrapAddr, *clients, *k)
	} else {
		var err error
		sys, err = dharma.NewSystem(dharma.Config{
			Nodes: *nodes, Mode: dharma.Approximated, K: *k, Seed: *seed,
			QueueDepth: *queueDepth, PerPeerRate: *peerRate,
		})
		if err != nil {
			fail(err)
		}
		for _, p := range sys.Peers() {
			engines = append(engines, p.Engine())
		}
		serverBusy = func() int64 { return sys.Network().Counters().Busy }
		fmt.Printf("target: %d-node simnet overlay, k=%d, queue-depth=%d, peer-rate=%.0f\n",
			*nodes, *k, *queueDepth, *peerRate)
	}

	rep, err := loadgen.RunOverload(ctx, cfg, engines, serverBusy)
	if errors.Is(err, context.Canceled) {
		diag.Warn("interrupted")
		os.Exit(130)
	}
	if err != nil {
		fail(err)
	}
	fmt.Print(rep)
	if sys != nil {
		var rejected int64
		for _, p := range sys.Peers() {
			rejected += p.Stats().BusyRejected
		}
		fmt.Printf("admission: %d requests rejected busy across the fleet\n", rejected)
	}
	if *out != "" {
		if err := rep.WriteCSV(*out); err != nil {
			fail(err)
		}
		fmt.Printf("(wrote %s)\n", *out)
	}

	if problems := rep.Check(*tolerance, *gorBudget); len(problems) > 0 {
		for _, p := range problems {
			diag.Error("overload check failed", "problem", p)
		}
		os.Exit(1)
	}
	fmt.Printf("overload check passed: goodput within %.0f%% of baseline at every multiplier, goroutines back within +%d of baseline\n",
		*tolerance*100, *gorBudget)
}
