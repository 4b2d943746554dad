package dharma

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/obs"
	"dharma/internal/simnet"
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
		if errors.Is(err, wire.ErrBusy) {
			busy++
			continue
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if m, err := wire.Decode(resp); err != nil || m.Kind != wire.KindPong {
			t.Fatalf("call %d: answered %v (%v), want PONG", i, m, err)
		}
	}
	if busy == 0 {
		t.Fatal("rate gate never rejected; the test exercises nothing")
	}

	// Close waits for every serve goroutine, and each releases its
	// admission slot before it exits, so InFlight is settled once Close
	// returns; read before it, a reply can overtake its slot's release.
	if err := p.Close(); err != nil {
		t.Fatal(err)
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
		t.Fatalf("InFlight = %d on a closed peer", st.InFlight)
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
// deployed peers, and after traffic on a simulated one, every Stats
// field equals the sum of the /metrics series behind it — Table I's
// block operations and the admission accounting included, on either
// transport.
func TestStatsMatchMetrics(t *testing.T) {
	ctx := context.Background()
	// series names the /metrics series (summed) behind each Stats field.
	series := map[string][]string{
		"Appends":          {"dharma_block_appends_total"},
		"Gets":             {"dharma_block_gets_total"},
		"Lookups":          {"dharma_block_appends_total", "dharma_block_gets_total"},
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
	check := func(p *Peer) Stats {
		t.Helper()
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
		return st
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
		st := check(p)
		if st.Lookups == 0 || st.RPCServed == 0 || st.NodeLookups == 0 || st.MaintBytesSent == 0 || st.DigestMatches == 0 {
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
	if st := check(p); st.Appends == 0 || st.NodeLookups == 0 || st.RPCServed == 0 || st.Admitted == 0 {
		t.Fatalf("simulated peer: traffic left counters at zero: %+v", st)
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

// TestUDPPeerSecuredBoot boots real-UDP peers the way an operator does,
// from a CA directory and identity files, with sessions required. Two
// authorized peers write a signed URI and read it back. A third peer
// whose identity is revoked while it is a live member loses its
// sessions once everyone re-reads the bundle; its write is refused with
// ErrUnauthorized and nothing it sent is readable. An identity paired
// with another authority's ca.pub is refused at boot.
func TestUDPPeerSecuredBoot(t *testing.T) {
	start := time.Now()
	ctx := context.Background()
	dir := t.TempDir()
	caDir := filepath.Join(dir, "ca")
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := auth.SaveCA(caDir); err != nil {
		t.Fatal(err)
	}
	idPath := map[string]string{}
	var mallory kadid.ID
	for _, name := range []string{"alice", "bob", "mallory"} {
		ident, err := auth.Issue(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		idPath[name] = filepath.Join(dir, name+".id")
		if err := ident.Save(idPath[name]); err != nil {
			t.Fatal(err)
		}
		if name == "mallory" {
			mallory = ident.NodeID
		}
	}
	boot := func(name string, via *Peer) *Peer {
		t.Helper()
		cfg := UDPPeerConfig{
			Listen:          "127.0.0.1:0",
			Timeout:         200 * time.Millisecond,
			IdentityPath:    idPath[name],
			CAPath:          likir.PublicKeyPath(caDir),
			RevocationsPath: likir.BundlePath(caDir),
		}
		if via != nil {
			cfg.Bootstrap = []string{string(via.Node.Transport().Addr())}
		}
		p, err := NewUDPPeer(ctx, cfg)
		if err != nil {
			t.Fatalf("boot %s: %v", name, err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a := boot("alice", nil)
	b := boot("bob", a)
	m := boot("mallory", a)

	if err := a.InsertResource(ctx, "song", "magnet:?xt=good", []string{"rock"}); err != nil {
		t.Fatal(err)
	}
	if uri, err := b.ResolveURI(ctx, "song"); err != nil || uri != "magnet:?xt=good" {
		t.Fatalf("bob resolves %q, %v; want alice's signed URI", uri, err)
	}

	// Revoke mallory and republish the bundle; every peer's maintenance
	// round re-reads it.
	auth.Revoke(mallory)
	if err := auth.SaveCA(caDir); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Peer{a, b, m} {
		if _, err := p.MaintainOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	err = m.InsertResource(ctx, "evil", "magnet:?xt=evil", []string{"rock"})
	if !errors.Is(err, wire.ErrUnauthorized) {
		t.Fatalf("revoked peer's insert: %v, want ErrUnauthorized", err)
	}
	for _, p := range []*Peer{a, b} {
		if uri, err := p.ResolveURI(ctx, "evil"); err == nil {
			t.Fatalf("revoked peer's write is readable: %q", uri)
		}
	}

	// An identity checked against another authority's key never boots.
	other, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	otherDir := filepath.Join(dir, "other")
	if err := other.SaveCA(otherDir); err != nil {
		t.Fatal(err)
	}
	if p, err := NewUDPPeer(ctx, UDPPeerConfig{
		Listen:       "127.0.0.1:0",
		IdentityPath: idPath["alice"],
		CAPath:       likir.PublicKeyPath(otherDir),
	}); err == nil {
		p.Close()
		t.Fatal("an identity paired with another CA's ca.pub booted")
	}

	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("secured boot test took %v, want under 2s", d)
	}
}

// TestWildcardPeerFiledAtSource: a peer bound to a wildcard address
// (":0", which it reports as "[::]:<port>") that joins through a
// loopback peer is held there at the address its requests came from,
// 127.0.0.1:<port>, and answers at it.
func TestWildcardPeerFiledAtSource(t *testing.T) {
	ctx := context.Background()
	seed, err := NewUDPPeer(ctx, UDPPeerConfig{Listen: "127.0.0.1:0", Config: Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	wild, err := NewUDPPeer(ctx, UDPPeerConfig{
		Listen: ":0", Config: Config{Seed: 2},
		Bootstrap: []string{string(seed.Node.Transport().Addr())},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wild.Close()
	_, port, err := net.SplitHostPort(wild.Node.Self().Addr)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.Contact{ID: wild.Node.Self().ID, Addr: net.JoinHostPort("127.0.0.1", port)}
	got := seed.Node.Table().Closest(want.ID, 1)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("seed holds the wildcard peer (bound at %s) as %v, want %v", wild.Node.Self().Addr, got, want)
	}
	if !seed.Node.Ping(ctx, want) {
		t.Fatalf("the wildcard peer does not answer at %s", want.Addr)
	}
}

// TestUnfilteredReadPastTheDatagram: on a loopback fleet of three
// peers, two hold an 8,000-entry block, more than one datagram carries.
// The third peer's read of the whole block ends in a size verdict, not
// "not found", a read of its top 100 returns them, and both holders
// stay in the reader's routing table.
func TestUnfilteredReadPastTheDatagram(t *testing.T) {
	ctx := context.Background()
	peers := make([]*Peer, 3)
	for i := range peers {
		cfg := UDPPeerConfig{Listen: "127.0.0.1:0", Config: Config{Seed: int64(i + 1)}}
		if i > 0 {
			cfg.Bootstrap = []string{string(peers[0].Node.Transport().Addr())}
		}
		p, err := NewUDPPeer(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
	}
	key := kadid.HashString("wide")
	block := make([]wire.Entry, 8000)
	for i := range block {
		block[i] = wire.Entry{Field: fmt.Sprintf("r%05d", i), Count: uint64(i%7 + 1)}
	}
	for _, h := range peers[1:] {
		if err := h.Node.LocalStore().MergeMax(ctx, key, block); err != nil {
			t.Fatal(err)
		}
	}
	reader := peers[0]
	if _, err := reader.store.Get(ctx, key, 0); !errors.Is(err, simnet.ErrTooLarge) {
		t.Fatalf("unfiltered read of %d entries: want ErrTooLarge, got %v", len(block), err)
	}
	for _, h := range peers[1:] {
		if got := reader.Node.Table().Closest(h.Node.Self().ID, 1); len(got) != 1 || got[0] != h.Node.Self() {
			t.Errorf("the reader holds the holder %v as %v after the size verdict", h.Node.Self(), got)
		}
	}
	if es, err := reader.store.Get(ctx, key, 100); err != nil || len(es) != 100 {
		t.Fatalf("read of the top 100 = %d entries, %v; want 100", len(es), err)
	}
}

// TestAddressesDoNotFlap: once every node of a fleet has exchanged with
// every other, a seeded run of writes with no maintenance round leaves
// every routing table's epoch where it was, so no cached replica set is
// invalidated. That holds only if the address a peer is dialled at is
// the address its requests come from. It runs on a loopback UDP fleet
// and on a simulated system. The fleet's last peer joins through the
// seed's host name, so it holds the seed at the seed's ip:port from the
// start, and the seed's first call to it moves nothing either.
func TestAddressesDoNotFlap(t *testing.T) {
	ctx := context.Background()
	udp := make([]*Peer, 4)
	for i := range udp {
		cfg := UDPPeerConfig{Listen: "127.0.0.1:0", Config: Config{Seed: int64(i + 1)}}
		if i > 0 {
			cfg.Bootstrap = []string{string(udp[0].Node.Transport().Addr())}
		}
		if i == len(udp)-1 {
			_, port, _ := net.SplitHostPort(cfg.Bootstrap[0])
			cfg.Bootstrap = []string{net.JoinHostPort("localhost", port)}
		}
		p, err := NewUDPPeer(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		udp[i] = p
	}
	joiner := udp[len(udp)-1].Node
	before := joiner.Table().Epoch()
	if !udp[0].Node.Ping(ctx, joiner.Self()) {
		t.Fatal("the seed cannot reach the peer that joined through its host name")
	}
	if got := joiner.Table().Epoch(); got != before {
		t.Errorf("the seed's first call moved the routing epoch of the peer that joined through its host name from %d to %d", before, got)
	}
	sys, err := NewSystem(Config{Nodes: 16, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	for _, fleet := range []struct {
		name  string
		peers []*Peer
	}{{"udp", udp}, {"simnet", sys.Peers()}} {
		for _, p := range fleet.peers {
			for _, q := range fleet.peers {
				if p != q && !p.Node.Ping(ctx, q.Node.Self()) {
					t.Fatalf("%s: ping %s -> %s failed", fleet.name, p.Node.Self().Addr, q.Node.Self().Addr)
				}
			}
		}
		epochs := make([]uint64, len(fleet.peers))
		for i, p := range fleet.peers {
			epochs[i] = p.Node.Table().Epoch()
		}
		rng := rand.New(rand.NewSource(52))
		for i := range 200 {
			p := fleet.peers[rng.Intn(len(fleet.peers))]
			tag := fmt.Sprintf("t%d", rng.Intn(20))
			if i < 50 {
				r := fmt.Sprintf("r%d", i)
				err = p.InsertResource(ctx, r, "uri:"+r, []string{tag})
			} else {
				err = p.Tag(ctx, fmt.Sprintf("r%d", rng.Intn(50)), tag)
			}
			if err != nil {
				t.Fatalf("%s: op %d: %v", fleet.name, i, err)
			}
		}
		for i, p := range fleet.peers {
			if got := p.Node.Table().Epoch(); got != epochs[i] {
				t.Errorf("%s: node %d's routing epoch moved from %d to %d", fleet.name, i, epochs[i], got)
			}
		}
	}
}
