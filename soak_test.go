package dharma

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dharma/internal/chaos"
	"dharma/internal/core"
	"dharma/internal/dht"
	"dharma/internal/kademlia"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// TestConcurrentSoak drives one System from many goroutines with a mixed
// Tag / InsertResource / Navigate / SearchStep workload. It asserts
// nothing beyond "no data race and no unexpected error" — its job is to
// fail under `go test -race` if any layer (engine, dht, kademlia,
// simnet) loses its synchronization.
func TestConcurrentSoak(t *testing.T) {
	for _, mode := range []Mode{Naive, Approximated} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			sys, err := NewSystem(Config{Nodes: 8, Mode: mode, K: 3, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}

			// Seed a shared vocabulary so concurrent taggers collide on
			// the same blocks (the interesting case for races).
			resources := make([]string, 12)
			tags := make([]string, 8)
			for i := range tags {
				tags[i] = fmt.Sprintf("tag%d", i)
			}
			for i := range resources {
				resources[i] = fmt.Sprintf("res%d", i)
				if err := sys.Peer(0).InsertResource(context.Background(), resources[i], "uri:"+resources[i], []string{tags[i%len(tags)]}); err != nil {
					t.Fatal(err)
				}
			}

			const (
				workers    = 16
				opsPerGoro = 60
			)
			var wg sync.WaitGroup
			errc := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					peer := sys.Peer(w % sys.Size())
					for i := 0; i < opsPerGoro; i++ {
						r := resources[rng.Intn(len(resources))]
						tg := tags[rng.Intn(len(tags))]
						switch rng.Intn(10) {
						case 0: // insert a fresh resource
							name := fmt.Sprintf("res-w%d-%d", w, i)
							if err := peer.InsertResource(context.Background(), name, "uri:"+name, []string{tg, tags[rng.Intn(len(tags))]}); err != nil {
								errc <- fmt.Errorf("insert: %w", err)
								return
							}
						case 1, 2: // navigate
							res, _ := peer.Navigate(context.Background(), tg, Random, NavOptions{
								MaxSteps: 5, Rng: rand.New(rand.NewSource(int64(i))),
							})
							if len(res.Path) == 0 {
								errc <- fmt.Errorf("navigate from %q: empty path", tg)
								return
							}
						case 3: // point reads
							if _, err := peer.ResolveURI(context.Background(), r); err != nil {
								errc <- fmt.Errorf("resolve %q: %w", r, err)
								return
							}
							if _, err := peer.TagsOf(context.Background(), r); err != nil {
								errc <- fmt.Errorf("tags of %q: %w", r, err)
								return
							}
						default: // tag (the 4+k hot path)
							if err := peer.Tag(context.Background(), r, tg); err != nil {
								errc <- fmt.Errorf("tag: %w", err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}

			// The system must still be coherent: every seeded resource
			// resolves and every seeded tag is navigable.
			for _, r := range resources {
				if _, err := sys.Peer(1).ResolveURI(context.Background(), r); err != nil {
					t.Errorf("post-soak resolve %q: %v", r, err)
				}
			}
			for _, tg := range tags {
				if _, _, err := sys.Peer(2).SearchStep(context.Background(), tg); err != nil {
					t.Errorf("post-soak search %q: %v", tg, err)
				}
			}
		})
	}
}

// TestChaosChurnSoak is the acceptance scenario of the churn subsystem,
// under a fixed seed: a mixed workload runs from protected client
// peers while 25% of the storage nodes crash and a client is
// partitioned from part of the overlay; the partition heals, a repair
// pass runs over the survivors — with the crashed quarter still dead —
// and then every acknowledged write must be readable with its durable
// floor intact. The test also runs under -race, so it doubles as a
// synchronization soak of the whole churn path (crash/detach racing
// in-flight RPCs, repair racing appends).
func TestChaosChurnSoak(t *testing.T) {
	const (
		nodes      = 16
		clients    = 4 // protected prefix: workers drive these
		crashCount = 4 // 25% of the overlay
		opsPerGoro = 80
		seed       = 20260727
	)
	sys, err := NewSystem(Config{
		Nodes:       nodes,
		Mode:        Approximated,
		K:           3,
		Replication: 8,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Clients write through recording stores, so every acknowledged
	// write lands in the ledger the final check verifies.
	ledger := chaos.NewLedger()
	load := newMixedLoad(t, sys, clients, ledger, "c", seed)

	// Phase 1: healthy overlay.
	mixedPhase(load, 1, opsPerGoro)

	// Chaos: crash 25% of the storage nodes (never the clients) and cut
	// client 1 off from four live storage nodes.
	cl := sys.Cluster()
	crashRng := rand.New(rand.NewSource(seed))
	for c := 0; c < crashCount; c++ {
		idx := clients + crashRng.Intn(cl.Len()-clients)
		if _, err := cl.Crash(idx); err != nil {
			t.Fatalf("crash %d: %v", c, err)
		}
	}
	clientAddr := simnet.Addr(sys.Peer(1).Node.Self().Addr)
	var cut []simnet.Addr
	for i := 0; i < 4 && clients+i < cl.Len(); i++ {
		peer := simnet.Addr(cl.NodeAt(clients + i).Self().Addr)
		cut = append(cut, peer)
		sys.Network().Partition(clientAddr, peer, true)
	}

	// Phase 2: workload continues against the degraded overlay.
	mixedPhase(load, 2, opsPerGoro)

	// Heal the partition; the crashed quarter stays dead.
	for _, peer := range cut {
		sys.Network().Partition(clientAddr, peer, false)
	}

	// Repair pass over the survivors, then the invariant: zero
	// acknowledged-write loss.
	violations := chaos.AntiEntropyAndCheck(context.Background(), cl, ledger, 2, 1)
	if len(violations) != 0 {
		t.Fatalf("lost %d of %d acknowledged (block,field) obligations after repair:\n%v",
			len(violations), ledger.Fields(), violations)
	}
	if ledger.Fields() == 0 {
		t.Fatal("ledger recorded nothing; the scenario tested no writes")
	}
}

// TestChaosCrashWaveHealedByAntiEntropy is the churn soak with the
// repair machinery narrowed to the bandwidth-frugal path: no forced
// (every = 1) sweep ever runs. A quarter of the
// storage nodes crash mid-workload, and the only healing force is the
// survivors' timer-driven anti-entropy rounds — digest probes, deltas
// where replicas disagree, suppression for recently written blocks.
// Every acknowledged write must still be readable afterwards.
func TestChaosCrashWaveHealedByAntiEntropy(t *testing.T) {
	const (
		nodes      = 16
		clients    = 4 // protected prefix: workers drive these
		crashCount = 4 // 25% of the overlay
		opsPerGoro = 80
		seed       = 20260808
	)
	sys, err := NewSystem(Config{
		Nodes:       nodes,
		Mode:        Approximated,
		K:           3,
		Replication: 8,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	ledger := chaos.NewLedger()
	load := newMixedLoad(t, sys, clients, ledger, "a", seed)

	// Phase 1: healthy overlay. Phase 2 runs against the degraded one.
	mixedPhase(load, 1, opsPerGoro)
	cl := sys.Cluster()
	crashRng := rand.New(rand.NewSource(seed))
	for c := 0; c < crashCount; c++ {
		idx := clients + crashRng.Intn(cl.Len()-clients)
		if _, err := cl.Crash(idx); err != nil {
			t.Fatalf("crash %d: %v", c, err)
		}
	}
	mixedPhase(load, 2, opsPerGoro)

	// Heal purely through anti-entropy rounds on the survivors, then the
	// invariant: zero acknowledged-write loss. Enough rounds that the
	// RepublishEvery=2 deadline fires for every block, suppressed or not.
	violations := chaos.AntiEntropyAndCheck(context.Background(), cl, ledger, 4, 2)
	if len(violations) != 0 {
		t.Fatalf("lost %d of %d acknowledged (block,field) obligations after anti-entropy:\n%v",
			len(violations), ledger.Fields(), violations)
	}
	if ledger.Fields() == 0 {
		t.Fatal("ledger recorded nothing; the scenario tested no writes")
	}

	// The healing must have been digest-frugal, not a disguised full
	// sweep: across the survivors most round-2+ probes hit matching
	// digests and moved no data.
	var matches, fulls int64
	for _, n := range cl.Snapshot() {
		st := n.AntiEntropy()
		matches += st.DigestMatches
		fulls += st.FullBlocks
	}
	if matches == 0 {
		t.Fatal("anti-entropy recorded no digest matches across four rounds")
	}
	if fulls > 0 {
		t.Fatalf("anti-entropy fell back to %d whole-block pushes", fulls)
	}
}

// TestChurnUnderLoad runs the mixed workload from protected clients on a
// 20-node overlay while a Churner crashes, revives, removes and joins
// the other nodes at 25 events/s (at most a quarter dead at once), with
// a 2-replica write quorum and a maintenance round on
// every member each 500ms. After a repair pass — the nodes still
// crashed stay down — every acknowledged write must be readable. The
// memory variant adds 2% packet loss; in the durable one every node
// logs to a WAL, so a revived node recovers its blocks from disk, not
// from retained memory.
func TestChurnUnderLoad(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const (
				nodes      = 20
				clients    = nodes / 4 // protected prefix: workers drive these
				opsPerGoro = 30
				seed       = 20261015
			)
			// Quorum 2: an acknowledged write survives the crash of either
			// acker even before any repair round spreads it further.
			cfg := Config{Nodes: nodes, Mode: Approximated, K: 3, WriteQuorum: 2, Seed: seed}
			if durable {
				cfg.DataDir, cfg.NoFsync = t.TempDir(), true
			} else {
				cfg.DropRate = 0.02
			}
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Shutdown()
			ctx, cancel := context.WithCancel(context.Background())
			stopMaint := maintainEvery(ctx, sys.Cluster(), 500*time.Millisecond)
			defer func() {
				cancel()
				stopMaint()
			}()

			ledger := chaos.NewLedger()
			load := newMixedLoad(t, sys, clients, ledger, "u", seed)
			churner, err := chaos.NewChurner(sys.Cluster(), chaos.ChurnConfig{
				Rate: 25, KillFraction: 0.25, Protected: clients, Seed: seed,
				Node: sys.Peer(0).Node.Config(), // joiners run what members run
			})
			if err != nil {
				t.Fatal(err)
			}
			churnCtx, stopChurn := context.WithCancel(ctx)
			churnDone := make(chan struct{})
			go func() {
				defer close(churnDone)
				churner.Run(churnCtx)
			}()
			// Keep the workload going until the churner has made ten
			// membership changes, a crash and a revive among them, so every
			// run covers the whole cycle.
			phase := 1
			for ; phase < 50; phase++ {
				mixedPhase(load, phase, opsPerGoro)
				st := churner.Stats()
				if st.Crashes > 0 && st.Revives > 0 && st.Crashes+st.Leaves+st.Revives+st.Joins >= 10 {
					break
				}
			}
			stopChurn()
			<-churnDone
			if st := churner.Stats(); st.Crashes == 0 || st.Revives == 0 {
				t.Fatalf("churner never crashed and revived a node: %s", st)
			}

			violations := chaos.AntiEntropyAndCheck(ctx, sys.Cluster(), ledger, 2, 1)
			if len(violations) != 0 {
				t.Fatalf("lost %d of %d acknowledged (block,field) obligations after repair (churn: %s):\n%v",
					len(violations), ledger.Fields(), churner.Stats(), violations)
			}
			if ledger.Fields() == 0 {
				t.Fatal("ledger recorded nothing; the scenario tested no writes")
			}
			t.Logf("%d phases, churn: %s, %d obligations readable", phase, churner.Stats(), ledger.Fields())
		})
	}
}

// maintainEvery runs a maintenance round on every cluster member, all
// members concurrently, once per interval until ctx ends; the returned
// func waits for the loop to exit. A crashed member's round is a no-op
// and a joiner shows up in the next Snapshot, so the loop follows
// membership with no bookkeeping.
func maintainEvery(ctx context.Context, cl *kademlia.Cluster, interval time.Duration) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			var wg sync.WaitGroup
			for _, n := range cl.Snapshot() {
				wg.Add(1)
				go func() { defer wg.Done(); n.MaintainOnce(ctx) }()
			}
			wg.Wait()
		}
	}()
	return func() { <-done }
}

// mixedLoad is the churn soaks' workload: protected client engines
// writing through chaos.Recording stores into one ledger, and the seeded
// vocabulary they draw from.
type mixedLoad struct {
	engines         []*core.Engine
	resources, tags []string
	prefix          string
	seed            int64
}

// newMixedLoad builds one engine per client on the system's first
// clients peers and seeds 16 resources covering 10 tags, named
// prefix+"r<i>" and prefix+"t<i>".
func newMixedLoad(t *testing.T, sys *System, clients int, ledger *chaos.Ledger, prefix string, seed int64) *mixedLoad {
	t.Helper()
	l := &mixedLoad{prefix: prefix, seed: seed}
	for i := 0; i < clients; i++ {
		st := chaos.NewRecording(dht.NewOverlay(sys.Peer(i).Node, nil), ledger)
		e, err := core.NewEngine(st, core.Config{Mode: Approximated, K: 3, Seed: seed + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		l.engines = append(l.engines, e)
	}
	for i := 0; i < 10; i++ {
		l.tags = append(l.tags, fmt.Sprintf("%st%d", prefix, i))
	}
	for i := 0; i < 16; i++ {
		r := fmt.Sprintf("%sr%d", prefix, i)
		l.resources = append(l.resources, r)
		if err := l.engines[0].InsertResource(context.Background(), r, "uri:"+r, l.tags[i%len(l.tags)]); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// mixedPhase drives the workload once: every client runs ops operations
// on its own goroutine — 10% inserts of a fresh resource, 20% search
// steps, 70% tags. Errors are ignored: under faults an op may fail, and
// the ledger records only what was acknowledged, which is exactly the
// contract the soaks check.
func mixedPhase(l *mixedLoad, phase, ops int) {
	var wg sync.WaitGroup
	for w, e := range l.engines {
		wg.Add(1)
		go func(w int, e *core.Engine) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(l.seed + int64(phase*100+w)))
			for i := 0; i < ops; i++ {
				r := l.resources[rng.Intn(len(l.resources))]
				tg := l.tags[rng.Intn(len(l.tags))]
				switch rng.Intn(10) {
				case 0:
					name := fmt.Sprintf("%sr-p%d-w%d-%d", l.prefix, phase, w, i)
					_ = e.InsertResource(context.Background(), name, "uri:"+name, tg)
				case 1, 2:
					_, _, _ = e.SearchStep(context.Background(), tg)
				default:
					_ = e.Tag(context.Background(), r, tg)
				}
			}
		}(w, e)
	}
	wg.Wait()
}

// TestConcurrentSoakLocalEngine exercises the embedding mode: one
// engine over one Local store shared by many goroutines.
func TestConcurrentSoakLocalEngine(t *testing.T) {
	t.Parallel()
	engine, store, err := NewLocalEngine(Config{Mode: Approximated, K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	t.Run("shared-resource", func(t *testing.T) {
		if err := engine.InsertResource(ctx, "shared", "uri:shared", "a", "b", "c", "d", "e", "f"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 12; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					tag := fmt.Sprintf("t%d", i%9)
					if err := engine.Tag(ctx, "shared", tag); err != nil {
						t.Error(err)
						return
					}
					if _, err := engine.TagsOf(ctx, "shared"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := store.Lookups(); got == 0 {
			t.Fatal("no lookups recorded")
		}
	})

	// A hot tag's t̄ block holds thousands of resources; concurrent
	// search steps on it, racing taggers that keep growing it, must each
	// get a full top-N page in non-increasing weight order.
	t.Run("hot-tag", func(t *testing.T) {
		const prefill, chunk = 5000, 256
		key := core.BlockKey("hot", core.BlockTagResources)
		for base := 0; base < prefill; base += chunk {
			entries := make([]wire.Entry, min(chunk, prefill-base))
			for i := range entries {
				entries[i] = wire.Entry{Field: fmt.Sprintf("hp%d", base+i), Count: uint64((base+i)%9973 + 1)}
			}
			if err := store.Append(ctx, key, entries); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if w%2 == 0 {
						if err := engine.Tag(ctx, fmt.Sprintf("hr%d-%d", w, i), "hot"); err != nil {
							t.Error(err)
							return
						}
					}
					_, res, err := engine.SearchStep(ctx, "hot")
					if err != nil {
						t.Error(err)
						return
					}
					if len(res) != core.DefaultTopN {
						t.Errorf("search step returned %d resources, want %d", len(res), core.DefaultTopN)
						return
					}
					for j := 1; j < len(res); j++ {
						if res[j].Weight > res[j-1].Weight {
							t.Errorf("resources out of order at %d: %+v after %+v", j, res[j], res[j-1])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}
