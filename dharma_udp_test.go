package dharma

import (
	"context"
	"math/rand"
	"net"
	"reflect"
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

// TestUDPPeerInstrument: a deployed two-peer overlay exposes RPC,
// transport, and admission metrics on each peer's registry.
func TestUDPPeerInstrument(t *testing.T) {
	ctx := context.Background()
	a, err := NewUDPPeer(ctx, UDPPeerConfig{Listen: "127.0.0.1:0"})
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
	if err := a.Metrics().WritePrometheus(&sb); err != nil {
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

// TestStatsMatchMetrics: Peer.Stats and Peer.Metrics are two views of
// one set of counters. After traffic and a maintenance round on two
// deployed peers, every Stats field with a /metrics series equals the
// scraped value; on a simulated peer the registry reports the same
// nonzero lookup and served-RPC totals as Stats.
func TestStatsMatchMetrics(t *testing.T) {
	ctx := context.Background()
	// series names the /metrics series (summed) behind each Stats field;
	// nil marks the engine's block-op counters, which have none.
	series := map[string][]string{
		"Appends": nil, "Gets": nil, "Lookups": nil,
		"NodeLookups":      {"dharma_lookups_total"},
		"RPCServed":        {"dharma_rpc_served_total"},
		"BusyRejected":     {"dharma_admission_rejected_queue_total", "dharma_admission_rejected_rate_total"},
		"Admitted":         {"dharma_admission_admitted_total"},
		"InFlight":         {"dharma_admission_in_flight"},
		"MaintBytesSent":   {"dharma_maintenance_bytes_out_total"},
		"MaintBytesRecv":   {"dharma_maintenance_bytes_in_total"},
		"DigestMatches":    {"dharma_antientropy_digest_matches_total"},
		"SuppressedRounds": {"dharma_antientropy_suppressed_total"},
		"DeltaEntries":     {"dharma_antientropy_delta_entries_total"},
	}
	scrape := func(p *Peer) map[string]*obs.ScrapedMetric {
		t.Helper()
		var sb strings.Builder
		if err := p.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		parsed, err := obs.ParsePrometheus(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		return parsed
	}

	a, err := NewUDPPeer(ctx, UDPPeerConfig{Listen: "127.0.0.1:0"})
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
	if err := b.InsertResource(ctx, "song", "uri:song", []string{"rock", "60s"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Tag(ctx, "song", "folk"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.SearchStep(ctx, "rock"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Peer{a, b} {
		if _, err := p.MaintainOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}

	for _, p := range []*Peer{a, b} {
		// A handler gives its admission slot back just after its reply
		// is written: wait for the last one before taking the two views.
		for deadline := time.Now().Add(5 * time.Second); p.Stats().InFlight != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("admission slots still held after the traffic ended")
			}
		}
		st := p.Stats()
		m := scrape(p)
		sv := reflect.ValueOf(st)
		for i := 0; i < sv.NumField(); i++ {
			name := sv.Type().Field(i).Name
			names, ok := series[name]
			if !ok {
				t.Fatalf("Stats.%s has no entry in the series table", name)
			}
			if names == nil {
				continue
			}
			var sum float64
			for _, n := range names {
				mv, ok := m[n]
				if !ok {
					t.Fatalf("%s: /metrics has no %s", p.Node.Self().Addr, n)
				}
				sum += mv.Value
			}
			if got := sv.Field(i).Int(); float64(got) != sum {
				t.Errorf("%s: Stats.%s = %d, /metrics %v = %v", p.Node.Self().Addr, name, got, names, sum)
			}
		}
		if st.RPCServed == 0 || st.NodeLookups == 0 || st.MaintBytesSent == 0 || st.DigestMatches == 0 {
			t.Fatalf("%s: traffic and a maintenance round left counters at zero: %+v", p.Node.Self().Addr, st)
		}
	}

	sys, err := NewSystem(Config{Nodes: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	p := sys.Peer(0)
	if err := p.InsertResource(ctx, "song", "uri:song", []string{"rock"}); err != nil {
		t.Fatal(err)
	}
	st, m := p.Stats(), scrape(p)
	for name, got := range map[string]int64{
		"dharma_lookups_total":    st.NodeLookups,
		"dharma_rpc_served_total": st.RPCServed,
	} {
		if mv, ok := m[name]; !ok || got == 0 || float64(got) != mv.Value {
			t.Errorf("simulated peer: Stats reports %d, /metrics %s = %+v", got, name, mv)
		}
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
