package dharma

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// overloadBounds is one overload run's load profile and the pass bounds
// of its two protection invariants.
type overloadBounds struct {
	calibrate, phase, opTimeout time.Duration
	tolerance                   float64 // allowed goodput drop at 4x vs 1x
	goroutineBudget             int     // allowed growth over baseline once quiesced
}

// checkOverload seeds a small vocabulary through peers, measures their
// closed-loop capacity, then offers 1x and 4x of it open-loop: every op
// runs on its own goroutine under the op deadline, whether or not
// earlier ones finished. Goodput at 4x must stay within tolerance of 1x
// (excess load is answered BUSY early, not queued into timeouts), and
// goroutines must come back within budget of the baseline.
func checkOverload(t *testing.T, peers []*Peer, b overloadBounds) {
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		r := fmt.Sprintf("lr%d", i)
		if err := peers[i%len(peers)].InsertResource(ctx, r, "uri:"+r, []string{fmt.Sprintf("lt%d", i%32)}); err != nil {
			t.Fatalf("seed %s: %v", r, err)
		}
	}
	// Op i tags one of the 64 resources with a Zipf-hot tag of the 32
	// when i is even and searches the tag when odd: half writes, the
	// worst case for admission, because a write fans out to the whole
	// replica set. The goroutine that owns rng draws the op; any runs it.
	draw := func(rng *rand.Rand, zipf *rand.Zipf, i int) func(context.Context) error {
		p, r, tag := peers[i%len(peers)], fmt.Sprintf("lr%d", rng.Intn(64)), fmt.Sprintf("lt%d", zipf.Uint64())
		if i%2 == 1 {
			return func(ctx context.Context) (err error) { _, _, err = p.SearchStep(ctx, tag); return err }
		}
		return func(ctx context.Context) error { return p.Tag(ctx, r, tag) }
	}
	baseline := runtime.NumGoroutine()

	// Capacity: 8 closed-loop workers, each waiting for its previous op,
	// never overload the deployment; their completion rate is the
	// sustainable service rate.
	cctx, cancel := context.WithTimeout(ctx, b.calibrate)
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			zipf := rand.NewZipf(rng, 1.2, 1, 31)
			for i := w; cctx.Err() == nil; i++ {
				if draw(rng, zipf, i)(cctx) == nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	cancel()
	capacity := float64(done.Load()) / time.Since(start).Seconds()

	goodput := func(mult float64) float64 {
		offered := mult * capacity
		rng := rand.New(rand.NewSource(int64(mult) + 100))
		zipf := rand.NewZipf(rng, 1.2, 1, 31)
		inflight := make(chan struct{}, 4096) // past this, offered ops are shed, not queued
		var ok atomic.Int64
		var issued, shed int64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		for time.Since(start) < b.phase {
			<-tick.C
			// Deficit pacing: issue what the offered rate owes by now. Shed
			// ops count as offered and are never re-offered, or a shed
			// storm would only defer the overload.
			for owe := int64(offered*time.Since(start).Seconds()) - issued - shed; owe > 0; owe-- {
				select {
				case inflight <- struct{}{}:
				default:
					shed++
					continue
				}
				op := draw(rng, zipf, int(issued))
				issued++
				wg.Add(1)
				go func() {
					defer wg.Done()
					opCtx, cancel := context.WithTimeout(ctx, b.opTimeout)
					if op(opCtx) == nil {
						ok.Add(1)
					}
					cancel()
					<-inflight
				}()
			}
		}
		wg.Wait()
		g := float64(ok.Load()) / time.Since(start).Seconds()
		t.Logf("%.0fx capacity (%.0f ops/s): issued %d, shed %d, goodput %.0f ops/s", mult, offered, issued, shed, g)
		return g
	}
	g1, g4 := goodput(1), goodput(4)
	if g1 == 0 || g4 < g1*(1-b.tolerance) {
		t.Errorf("goodput collapsed at 4x offered load: %.0f ops/s vs %.0f at 1x (tolerance %.0f%%)", g4, g1, b.tolerance*100)
	}

	// Servers may still drain work whose callers timed out: bounded
	// work, not a leak. So count the lowest level seen within 3s.
	final := runtime.NumGoroutine()
	for quiet := time.Now().Add(3 * time.Second); final > baseline && time.Now().Before(quiet); {
		time.Sleep(50 * time.Millisecond)
		final = min(final, runtime.NumGoroutine())
	}
	if final > baseline+b.goroutineBudget {
		t.Errorf("goroutines grew past budget: %d after the run vs %d before (+%d allowed)", final, baseline, b.goroutineBudget)
	}
}

// TestOverloadSimnet holds a 12-node simulated overlay, admission tuned
// to a 32-deep queue and 300 requests/s per peer, to flat goodput at 4x
// its capacity.
func TestOverloadSimnet(t *testing.T) {
	sys, err := NewSystem(Config{
		Nodes: 12, Mode: Approximated, K: 5, Seed: 1,
		QueueDepth: 32, PerPeerRate: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	checkOverload(t, sys.Peers(), overloadBounds{
		calibrate: time.Second, phase: 2 * time.Second, opTimeout: 250 * time.Millisecond,
		tolerance: 0.3, goroutineBudget: 200,
	})
	checkShedBusy(t, sys.Peers())
}

// checkShedBusy fails the test unless the serving peers answered some
// requests BUSY: flat goodput only shows admission at work if
// admission turned excess load away.
func checkShedBusy(t *testing.T, servers []*Peer) {
	var busy int64
	for _, p := range servers {
		busy += p.Stats().BusyRejected
	}
	t.Logf("servers answered %d requests BUSY", busy)
	if busy == 0 {
		t.Error("no request was answered BUSY: admission never shed the excess load")
	}
}

// TestOverloadUDP drives a 3-node real-UDP fleet (queue depth 64, 150
// requests/s per peer) through 3 UDP client peers at 4x its capacity.
// Over real UDP the contended resource is the socket and the CPU, which
// a concurrency bound cannot see; the per-peer rate limit is what sheds
// load early here. Loopback latency is noisy, so the tolerance is looser
// than the simulated run's.
func TestOverloadUDP(t *testing.T) {
	ctx := context.Background()
	boot := func(cfg UDPPeerConfig) *Peer {
		cfg.Listen = "127.0.0.1:0"
		cfg.Replication, cfg.Alpha = 20, 3
		p, err := NewUDPPeer(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	server := UDPPeerConfig{Config: Config{QueueDepth: 64, PerPeerRate: 150}}
	servers := []*Peer{boot(server)}
	bootstrap := []string{servers[0].Node.Self().Addr}
	server.Bootstrap = bootstrap
	servers = append(servers, boot(server), boot(server))
	var clients []*Peer
	for i := 0; i < 3; i++ {
		clients = append(clients, boot(UDPPeerConfig{
			Config:    Config{Mode: Approximated, K: 5, Seed: 1 + int64(i)},
			Bootstrap: bootstrap,
		}))
	}
	checkOverload(t, clients, overloadBounds{
		calibrate: 500 * time.Millisecond, phase: time.Second, opTimeout: 500 * time.Millisecond,
		tolerance: 0.4, goroutineBudget: 300,
	})
	checkShedBusy(t, servers)
}
