package dharma

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/obs"
	"dharma/internal/wire"
)

// TestUDPPeerStatsSurfaceAdmission is the regression test for the bug
// where a real-UDP peer's Stats() silently reported BusyRejected: 0 —
// the field was read from simnet counters only, and a deployed node has
// no simnet endpoint. The admission accounting must come from the UDP
// transport's own controller.
func TestUDPPeerStatsSurfaceAdmission(t *testing.T) {
	ctx := context.Background()
	// A per-peer rate this low never refills a token: the default burst
	// (8) is the total allowance, everything past it is rejected busy.
	p, err := NewUDPPeer(ctx, UDPPeerConfig{
		Listen: "127.0.0.1:0",
		Config: Config{PerPeerRate: 0.0001},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// A raw wire-level client: no busy retries, no backoff — each Call
	// is exactly one admission decision at the peer.
	client, err := wire.ListenUDP("127.0.0.1:0", nil, wire.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ping := wire.Encode(&wire.Message{
		Kind: wire.KindPing,
		From: wire.Contact{ID: kadid.Random(rand.New(rand.NewSource(1))), Addr: string(client.Addr())},
	})
	var busy int
	for i := 0; i < 20; i++ {
		resp, err := client.Call(ctx, p.Node.Transport().Addr(), ping)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		m, err := wire.Decode(resp)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if m.Kind == wire.KindBusy {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("rate gate never rejected; the test exercises nothing")
	}

	st := p.Stats()
	if st.Admitted == 0 {
		t.Fatal("UDP peer Stats().Admitted is 0 despite served pings")
	}
	if st.BusyRejected == 0 {
		t.Fatal("UDP peer Stats().BusyRejected is 0 despite busy answers (the old silent-zero bug)")
	}
	if int(st.BusyRejected) != busy {
		t.Fatalf("BusyRejected = %d, want %d (one per busy answer)", st.BusyRejected, busy)
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d on a quiescent peer", st.InFlight)
	}
}

// TestSimnetPeerStatsSurfaceAdmission: the simulated path reports the
// same admission fields, read off the endpoint's own controller exactly
// as the UDP transport's are.
func TestSimnetPeerStatsSurfaceAdmission(t *testing.T) {
	sys, err := NewSystem(Config{Nodes: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	ctx := context.Background()
	if err := sys.Peer(0).InsertResource(ctx, "r", "uri:r", []string{"rock"}); err != nil {
		t.Fatal(err)
	}
	var admitted int64
	for _, p := range sys.Peers() {
		admitted += p.Stats().Admitted
	}
	if admitted == 0 {
		t.Fatal("no simulated peer reports admitted requests after an insert")
	}
}

// TestUDPPeerInstrument: a deployed two-peer overlay instrumented on a
// registry exposes RPC, transport, and admission metrics.
func TestUDPPeerInstrument(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	a, err := NewUDPPeer(ctx, UDPPeerConfig{Listen: "127.0.0.1:0", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPPeer(ctx, UDPPeerConfig{
		Listen:    "127.0.0.1:0",
		Bootstrap: []string{string(a.Node.Transport().Addr())},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.InsertResource(ctx, "song", "uri:song", []string{"rock"}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"dharma_rpc_serve_seconds_bucket",
		"dharma_udp_datagrams_read_total",
		"dharma_admission_admitted_total",
		"dharma_store_blocks",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
	parsed, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := parsed["dharma_udp_datagrams_read_total"]; !ok || m.Value == 0 {
		t.Fatalf("instrumented transport read no datagrams: %+v", m)
	}
}

// TestUDPPeerFailedBootReleasesWAL: a boot that fails after the durable
// store opened (here: the socket cannot be bound) must close the store
// again. It used to return straight out of the listen error, leaving
// the WAL's flusher goroutine and segment descriptor behind on every
// attempt.
func TestUDPPeerFailedBootReleasesWAL(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p, err := NewUDPPeer(ctx, UDPPeerConfig{Listen: "127.0.0.1:0", Config: Config{DataDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InsertResource(ctx, "song", "uri:song", []string{"rock"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Hold a port so every boot below dies at bind, after the WAL opened.
	taken, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := NewUDPPeer(ctx, UDPPeerConfig{
			Listen: taken.LocalAddr().String(),
			Config: Config{DataDir: dir},
		}); err == nil {
			t.Fatal("boot on a taken port succeeded")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 20 failed boots, %d before: the WAL flushers leaked",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	p, err = NewUDPPeer(ctx, UDPPeerConfig{Listen: "127.0.0.1:0", Config: Config{DataDir: dir}})
	if err != nil {
		t.Fatalf("boot over the same DataDir after failed attempts: %v", err)
	}
	defer p.Close()
	if uri, err := p.ResolveURI(ctx, "song"); err != nil || uri != "uri:song" {
		t.Fatalf("recovered ResolveURI = %q, %v; want the pre-failure write", uri, err)
	}
}

// TestUDPPeerMaintainOnce drives the facade's one maintenance entry
// point over real sockets: a round evicts a dead contact, and a round on
// a block holder hands a late joiner the blocks it is now a replica of,
// proving agreement with the older replicas by digest. Each round's
// report says what it did.
func TestUDPPeerMaintainOnce(t *testing.T) {
	ctx := context.Background()
	boot := func(via *Peer) *Peer {
		t.Helper()
		// A short RPC timeout keeps the pings to the dead peer cheap.
		cfg := UDPPeerConfig{Listen: "127.0.0.1:0", Timeout: 250 * time.Millisecond}
		if via != nil {
			cfg.Bootstrap = []string{string(via.Node.Transport().Addr())}
		}
		p, err := NewUDPPeer(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a := boot(nil)
	b, c := boot(a), boot(a)
	if err := b.InsertResource(ctx, "song", "uri:song", []string{"rock", "60s"}); err != nil {
		t.Fatal(err)
	}

	dead := c.Node.Self().ID
	if !a.Node.Table().Contains(dead) {
		t.Fatal("seed never learned the peer that bootstrapped through it")
	}
	c.Close()
	round, err := a.MaintainOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a.Node.Table().Contains(dead) || round.Evicted == 0 {
		t.Fatalf("MaintainOnce left the dead contact in the routing table (report %+v)", round)
	}

	d := boot(a)
	if n := d.Node.LocalStore().Len(); n != 0 {
		t.Fatalf("late joiner holds %d blocks before any maintenance round", n)
	}
	round, err = b.MaintainOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.Node.LocalStore().Len() == 0 {
		t.Fatal("late joiner received no blocks from a holder's maintenance round")
	}
	if round.Synced == 0 || round.Acks == 0 {
		t.Fatalf("holder's round reports no synced blocks or acks: %+v", round)
	}
	if st := b.Stats(); st.DigestMatches+st.DeltaEntries == 0 {
		t.Fatalf("round moved no digests and no deltas: %+v", st)
	}
}
