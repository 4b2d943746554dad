package kademlia

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// busyThenPong answers KindBusy for the first busyCount requests, then
// a proper PONG. It records the arrival time of every request so tests
// can verify the caller's backoff schedule.
type busyThenPong struct {
	self      wire.Contact
	busyCount int

	mu       sync.Mutex
	arrivals []time.Time
}

func (b *busyThenPong) HandleRPC(_ context.Context, _ simnet.Addr, _ []byte) ([]byte, error) {
	b.mu.Lock()
	b.arrivals = append(b.arrivals, time.Now())
	n := len(b.arrivals)
	b.mu.Unlock()
	if n <= b.busyCount {
		return wire.Encode(&wire.Message{Kind: wire.KindBusy}), nil
	}
	return wire.Encode(&wire.Message{Kind: wire.KindPong, From: b.self}), nil
}

func (b *busyThenPong) times() []time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Time(nil), b.arrivals...)
}

// TestBusyRetryBacksOffAndSucceeds: a client answered BUSY twice must
// retry with growing jittered delays and succeed on the third attempt —
// without ever dropping the busy peer from its routing table.
func TestBusyRetryBacksOffAndSucceeds(t *testing.T) {
	net := simnet.New(simnet.Config{})
	const backoff = 4 * time.Millisecond
	n := NewNode(kadid.HashString("client"), Config{K: 4, BusyBackoff: backoff})
	n.Attach(net.Attach("client", n))

	peer := wire.Contact{ID: kadid.HashString("busy-peer"), Addr: "busy-peer"}
	srv := &busyThenPong{self: peer, busyCount: 2}
	net.Attach("busy-peer", srv)
	n.Table().Update(peer)

	if !n.Ping(context.Background(), peer) {
		t.Fatal("Ping failed; the busy retries should have reached the PONG")
	}

	arr := srv.times()
	if len(arr) != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 busy + 1 success)", len(arr))
	}
	// Jitter draws from [0.5, 1.5)·backoff·2^i, so the gap lower bounds
	// are deterministic: ≥ backoff/2, then ≥ backoff (doubled base).
	gap1, gap2 := arr[1].Sub(arr[0]), arr[2].Sub(arr[1])
	if gap1 < backoff/2 {
		t.Fatalf("first retry after %v, want ≥ %v", gap1, backoff/2)
	}
	if gap2 < backoff {
		t.Fatalf("second retry after %v, want ≥ %v (backoff must grow)", gap2, backoff)
	}

	if got := n.Table().Closest(peer.ID, 1); len(got) == 0 || got[0].ID != peer.ID {
		t.Fatal("busy peer missing from the routing table: busy must not mean dead")
	}
}

// TestBusyExhaustionSurfacesTypedError: when every retry is answered
// BUSY, the call gives up with an error wrapping wire.ErrBusy — and the
// peer still stays in the routing table.
func TestBusyExhaustionSurfacesTypedError(t *testing.T) {
	net := simnet.New(simnet.Config{})
	n := NewNode(kadid.HashString("client"), Config{K: 4, BusyRetries: 2, BusyBackoff: time.Millisecond})
	n.Attach(net.Attach("client", n))

	peer := wire.Contact{ID: kadid.HashString("forever-busy"), Addr: "forever-busy"}
	srv := &busyThenPong{self: peer, busyCount: 1 << 30}
	net.Attach("forever-busy", srv)
	n.Table().Update(peer)

	err := n.call(context.Background(), peer, &wire.Message{Kind: wire.KindPing}, new(wire.Message))
	if !errors.Is(err, wire.ErrBusy) {
		t.Fatalf("exhausted retries: got %v, want wire.ErrBusy", err)
	}
	if got := len(srv.times()); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (initial + 2 retries)", got)
	}
	if got := n.Table().Closest(peer.ID, 1); len(got) == 0 || got[0].ID != peer.ID {
		t.Fatal("busy peer was evicted from the routing table")
	}
}

// TestBusyRetryHonorsContext: cancellation during the backoff sleep
// returns promptly with the ctx error instead of finishing the retry
// schedule.
func TestBusyRetryHonorsContext(t *testing.T) {
	net := simnet.New(simnet.Config{})
	n := NewNode(kadid.HashString("client"), Config{K: 4, BusyRetries: 10, BusyBackoff: 200 * time.Millisecond})
	n.Attach(net.Attach("client", n))

	peer := wire.Contact{ID: kadid.HashString("forever-busy"), Addr: "forever-busy"}
	net.Attach("forever-busy", &busyThenPong{self: peer, busyCount: 1 << 30})
	n.Table().Update(peer)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := n.call(ctx, peer, &wire.Message{Kind: wire.KindPing}, new(wire.Message))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("call took %v; ctx must cut the backoff sleep short", elapsed)
	}
}

// TestRemoveNodeHungHandoffHonorsContext: a departing node whose
// replicas never answer must not hang membership — the caller's
// deadline bounds the handoff, the removal itself still happens.
func TestRemoveNodeHungHandoffHonorsContext(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 3, Node: Config{K: 2, Alpha: 2}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()

	// Give the departing node a block so the handoff has work to do.
	departing := cl.NodeAt(2)
	key := kadid.HashString("block")
	if err := departing.store.Append(context.Background(), key, []wire.Entry{{Field: "f", Count: 1}}); err != nil {
		t.Fatal(err)
	}

	// Wedge every other member: requests arrive and never finish.
	block := make(chan struct{})
	defer close(block)
	for i := 0; i < 2; i++ {
		addr := simnet.Addr(cl.NodeAt(i).Self().Addr)
		cl.Net.Attach(addr, simnet.HandlerFunc(
			func(context.Context, simnet.Addr, []byte) ([]byte, error) {
				<-block
				return nil, errors.New("wedged")
			}))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	n, herr := cl.RemoveNode(ctx, 2)
	elapsed := time.Since(start)

	if n == nil {
		t.Fatal("RemoveNode returned no node; the removal must happen even when the handoff cannot")
	}
	if herr == nil {
		t.Fatal("hung handoff reported success")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("RemoveNode took %v; the 100ms deadline must bound the hung handoff", elapsed)
	}
	if got := cl.Len(); got != 2 {
		t.Fatalf("membership after removal = %d, want 2", got)
	}
}
