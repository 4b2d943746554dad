package kademlia

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dharma/internal/admission"
	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/session"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// busyThenPong refuses the first busyCount requests with ErrBusy, then
// answers a proper PONG. It records the arrival time of every request so tests
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
		return nil, wire.ErrBusy
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
	const backoff = busyBackoff
	n := NewNode(kadid.HashString("client"), Config{K: 4})
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
	n := NewNode(kadid.HashString("client"), Config{K: 4})
	n.Attach(net.Attach("client", n))

	peer := wire.Contact{ID: kadid.HashString("forever-busy"), Addr: "forever-busy"}
	srv := &busyThenPong{self: peer, busyCount: 1 << 30}
	net.Attach("forever-busy", srv)
	n.Table().Update(peer)

	err := n.call(context.Background(), peer, &wire.Message{Kind: wire.KindPing}, new(wire.Message))
	if !errors.Is(err, wire.ErrBusy) {
		t.Fatalf("exhausted retries: got %v, want wire.ErrBusy", err)
	}
	if got := len(srv.times()); got != 1+busyRetries {
		t.Fatalf("server saw %d attempts, want %d (initial + %d retries)", got, 1+busyRetries, busyRetries)
	}
	if got := net.Counters().Busy; got != 1+busyRetries {
		t.Fatalf("network counted %d busy exchanges, want %d", got, 1+busyRetries)
	}
	if got := n.Table().Closest(peer.ID, 1); len(got) == 0 || got[0].ID != peer.ID {
		t.Fatal("busy peer was evicted from the routing table")
	}
}

// TestBusyRetryHonorsContext: a BUSY answer that arrives after the
// caller's deadline passed ends the call with the ctx error, without a
// retry: the backoff sleep is cut short by ctx.
func TestBusyRetryHonorsContext(t *testing.T) {
	n := NewNode(kadid.HashString("client"), Config{K: 4})
	var attempts int
	n.Attach(stubTransport(func(ctx context.Context) error {
		attempts++
		<-ctx.Done()
		return fmt.Errorf("wire: forever-busy refused request: %w", wire.ErrBusy)
	}))
	peer := wire.Contact{ID: kadid.HashString("forever-busy"), Addr: "forever-busy"}
	n.Table().Update(peer)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := n.call(ctx, peer, &wire.Message{Kind: wire.KindPing}, new(wire.Message))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if attempts != 1 {
		t.Fatalf("%d attempts, want 1: a busy answer past the deadline must not be retried", attempts)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("call took %v; ctx must cut the backoff sleep short", elapsed)
	}
	if !inTable(n, peer) {
		t.Fatal("busy peer evicted after the caller's deadline")
	}
}

// stubTransport is a transport whose every Call ends with the error the
// function returns for it: one verdict, wrapped the way a transport
// wraps it, without a network behind it.
type stubTransport func(ctx context.Context) error

func (f stubTransport) Call(ctx context.Context, _ simnet.Addr, _ []byte) ([]byte, error) {
	return nil, f(ctx)
}
func (stubTransport) Addr() simnet.Addr { return "stub" }
func (stubTransport) Close() error      { return nil }

func inTable(n *Node, c wire.Contact) bool {
	got := n.Table().Closest(c.ID, 1)
	return len(got) == 1 && got[0].ID == c.ID
}

// TestRefusalKeepsPeer is the "a refusal never evicts a live peer"
// guarantee as one table: every verdict either transport returns for a
// live peer, wrapped as that transport wraps it, leaves the contact in
// the routing table. Only a timeout, the one answer a dead peer gives,
// removes it.
func TestRefusalKeepsPeer(t *testing.T) {
	cases := []struct {
		name string
		call func(ctx context.Context, cancel context.CancelFunc) error
		keep bool
	}{
		{"busy at simnet admission", func(context.Context, context.CancelFunc) error {
			return fmt.Errorf("simnet: peer refused request: %w", simnet.ErrBusy)
		}, true},
		{"busy refused frame over UDP", func(context.Context, context.CancelFunc) error {
			return fmt.Errorf("wire: 127.0.0.1:1 refused request: %w", wire.ErrBusy)
		}, true},
		{"unauthorized: session required", func(context.Context, context.CancelFunc) error {
			return fmt.Errorf("wire: 127.0.0.1:1 refused request: authenticated session required: %w", wire.ErrUnauthorized)
		}, true},
		{"unauthorized: session rejected after re-handshake", func(context.Context, context.CancelFunc) error {
			return fmt.Errorf("%w: peer rejects session after re-handshake", wire.ErrUnauthorized)
		}, true},
		{"too large", func(context.Context, context.CancelFunc) error {
			return fmt.Errorf("%w: 70000 bytes", simnet.ErrTooLarge)
		}, true},
		{"closed under the caller", func(context.Context, context.CancelFunc) error {
			return simnet.ErrClosed
		}, true},
		{"caller cancelled", func(ctx context.Context, cancel context.CancelFunc) error {
			cancel()
			return ctx.Err()
		}, true},
		{"timeout", func(context.Context, context.CancelFunc) error {
			return simnet.ErrTimeout
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			n := NewNode(kadid.HashString("client"), Config{K: 4})
			n.Attach(stubTransport(func(context.Context) error { return tc.call(ctx, cancel) }))
			peer := wire.Contact{ID: kadid.HashString("peer"), Addr: "peer"}
			n.Table().Update(peer)

			if err := n.call(ctx, peer, &wire.Message{Kind: wire.KindPing}, new(wire.Message)); err == nil {
				t.Fatal("call succeeded against a transport that only fails")
			}
			if got := inTable(n, peer); got != tc.keep {
				t.Fatalf("peer in table after the call = %v, want %v", got, tc.keep)
			}
		})
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

// TestRefusalUDPHandshakeBusy: a sealed dial to a server whose only
// admission slot is held is refused BUSY at the handshake, well inside
// the transport timeout, and the server stays in the caller's table.
func TestRefusalUDPHandshakeBusy(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	manager := func(name string) (*likir.Identity, *session.Manager) {
		id, err := auth.Issue(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := session.NewManager(session.Config{Identity: id, CAPub: auth.PublicKey()})
		if err != nil {
			t.Fatal(err)
		}
		return id, m
	}
	srvID, srvSessions := manager("server")
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	srv, err := wire.ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) {
			entered <- struct{}{}
			<-gate
			return nil, errors.New("released")
		}), wire.UDPOptions{Sessions: srvSessions, Admission: admission.Config{QueueDepth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(gate)

	// Another member's sealed request takes the only slot and sticks.
	// Its handshake passes the gate first, and the request can land
	// before the handshake has left the slot, so a BUSY is retried and
	// the refusals counted below start once the slot is held.
	_, holderSessions := manager("holder")
	holder, err := wire.ListenUDP("127.0.0.1:0", nil, wire.UDPOptions{Sessions: holderSessions})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	go func() {
		for {
			// Ends when holder closes.
			if _, err := holder.Call(context.Background(), srv.Addr(), []byte("hold")); !errors.Is(err, wire.ErrBusy) {
				return
			}
		}
	}()
	<-entered
	refused := srv.AdmissionStats().RejectedQueue

	cliID, cliSessions := manager("client")
	n := NewNode(kadid.ID{}, Config{K: 4, Identity: cliID, CAPub: auth.PublicKey()})
	tr, err := wire.ListenUDP("127.0.0.1:0", n, wire.UDPOptions{Sessions: cliSessions})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	n.Attach(tr)
	peer := wire.Contact{ID: srvID.NodeID, Addr: string(srv.Addr())}
	n.Table().Update(peer)

	start := time.Now()
	_, err = tr.Call(context.Background(), srv.Addr(), []byte("ping"))
	if elapsed := time.Since(start); !errors.Is(err, wire.ErrBusy) || elapsed > wire.DefaultUDPTimeout/10 {
		t.Fatalf("sealed dial to a full queue = %v after %v, want ErrBusy well inside %v", err, elapsed, wire.DefaultUDPTimeout)
	}
	start = time.Now()
	err = n.call(context.Background(), peer, &wire.Message{Kind: wire.KindPing}, new(wire.Message))
	if elapsed := time.Since(start); !errors.Is(err, wire.ErrBusy) || elapsed > wire.DefaultUDPTimeout/10 {
		t.Fatalf("node call to a full queue = %v after %v, want ErrBusy well inside %v", err, elapsed, wire.DefaultUDPTimeout)
	}
	if !inTable(n, peer) {
		t.Fatal("busy server evicted from the caller's table")
	}
	if got := srv.AdmissionStats().RejectedQueue - refused; got != 2+busyRetries {
		t.Fatalf("server refused %d hellos, want %d (one dial, then a call and its retries)", got, 2+busyRetries)
	}
}

// TestRefusalUDPPlainCaller: a plain caller refused by a server with a
// session layer gets ErrUnauthorized and keeps the server.
func TestRefusalUDPPlainCaller(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	srvID, err := auth.Issue(nil, "server")
	if err != nil {
		t.Fatal(err)
	}
	srvSessions, err := session.NewManager(session.Config{Identity: srvID, CAPub: auth.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) {
			t.Error("handler ran for a plain request to a secured transport")
			return nil, nil
		}), wire.UDPOptions{Sessions: srvSessions})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	n := NewNode(kadid.HashString("plain"), Config{K: 4})
	tr, err := wire.ListenUDP("127.0.0.1:0", n, wire.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	n.Attach(tr)
	peer := wire.Contact{ID: srvID.NodeID, Addr: string(srv.Addr())}
	n.Table().Update(peer)

	start := time.Now()
	err = n.call(context.Background(), peer, &wire.Message{Kind: wire.KindPing}, new(wire.Message))
	if elapsed := time.Since(start); !errors.Is(err, wire.ErrUnauthorized) || elapsed > wire.DefaultUDPTimeout/10 {
		t.Fatalf("plain call to a secured transport = %v after %v, want ErrUnauthorized well inside %v", err, elapsed, wire.DefaultUDPTimeout)
	}
	if !inTable(n, peer) {
		t.Fatal("refusing server evicted from the caller's table")
	}
	if got := srv.AuthRejected(); got != 1 {
		t.Fatalf("server counted %d refusals, want 1", got)
	}
}

// TestRefusalUDPNoSessionLayer: a secured node that pings an open one
// has its handshake refused at once with ErrUnauthorized, not after the
// transport timeout, and keeps the open node in its table.
func TestRefusalUDPNoSessionLayer(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	cliID, err := auth.Issue(nil, "client")
	if err != nil {
		t.Fatal(err)
	}
	cliSessions, err := session.NewManager(session.Config{Identity: cliID, CAPub: auth.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}

	open := NewNode(kadid.HashString("open"), Config{K: 4})
	srv, err := wire.ListenUDP("127.0.0.1:0", open, wire.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	open.Attach(srv)

	n := NewNode(kadid.ID{}, Config{K: 4, Identity: cliID, CAPub: auth.PublicKey()})
	tr, err := wire.ListenUDP("127.0.0.1:0", n, wire.UDPOptions{Sessions: cliSessions})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	n.Attach(tr)
	peer := open.Self()
	n.Table().Update(peer)

	start := time.Now()
	err = n.call(context.Background(), peer, &wire.Message{Kind: wire.KindPing}, new(wire.Message))
	if elapsed := time.Since(start); !errors.Is(err, wire.ErrUnauthorized) || elapsed > 100*time.Millisecond {
		t.Fatalf("secured ping of an open node = %v after %v, want ErrUnauthorized within 100ms", err, elapsed)
	}
	if n.Ping(context.Background(), peer) {
		t.Fatal("secured ping of an open node succeeded")
	}
	if !inTable(n, peer) {
		t.Fatal("open node evicted from the secured caller's table")
	}
}
