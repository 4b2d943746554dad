package kademlia

import (
	"context"
	"sync"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/session"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// TestAdmitRejectsBadCredentials drives admit's one rule on a secured
// simnet node with requests that carry no transport peer but name a
// sender: a STORE whose credential blob does not parse, was issued by
// another authority, or names a different node than its credential, and
// a STORE that names a member the node already knows (bob, who pinged
// it) with no credential at all, from an address of the sender's
// choosing. Each must be answered UNAUTHORIZED, land nothing, and be
// counted; bob's contact keeps his real address.
func TestAdmitRejectsBadCredentials(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{N: 2, Node: Config{K: 4}, Seed: 5, Authority: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	srv, bob := cl.Nodes[0], cl.Nodes[1]
	if !bob.Ping(context.Background(), srv.Self()) {
		t.Fatal("bob's ping failed")
	}
	if !inTable(srv, bob.Self()) {
		t.Fatal("server did not learn bob from his ping")
	}

	client, err := auth.Issue(nil, "client")
	if err != nil {
		t.Fatal(err)
	}
	other, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Issue(nil, "foreign")
	if err != nil {
		t.Fatal(err)
	}

	key := kadid.HashString("block")
	cases := []struct {
		name string
		from kadid.ID
		addr string
		cred []byte
	}{
		{"malformed", client.NodeID, "client-addr", []byte{0xde, 0xad, 0xbe, 0xef}},
		{"other CA", foreign.NodeID, "client-addr", foreign.Credential.Marshal()},
		{"id mismatch", kadid.HashString("impostor"), "client-addr", client.Credential.Marshal()},
		{"known member, no credential", bob.Self().ID, "mallory:9", nil},
	}
	rejected := srv.Counters().AuthRejected.At(int(wire.KindStore) - 1)
	for i, tc := range cases {
		payload := wire.Encode(&wire.Message{
			Kind:    wire.KindStore,
			From:    wire.Contact{ID: tc.from, Addr: tc.addr},
			Cred:    tc.cred,
			Target:  key,
			Entries: []wire.Entry{{Field: "arc", Count: 1}},
		})
		out, err := srv.HandleRPC(context.Background(), simnet.Addr(tc.addr), payload)
		if err != nil {
			t.Fatalf("%s: HandleRPC: %v", tc.name, err)
		}
		resp, err := wire.Decode(out)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if resp.Kind != wire.KindUnauthorized {
			t.Fatalf("%s: STORE answered %v, want UNAUTHORIZED", tc.name, resp.Kind)
		}
		if srv.LocalStore().Len() != 0 {
			t.Fatalf("%s: rejected STORE reached the store", tc.name)
		}
		if got := rejected.Load(); got != int64(i+1) {
			t.Fatalf("%s: AuthRejected[STORE] = %d, want %d", tc.name, got, i+1)
		}
	}
	got := srv.Table().Closest(bob.Self().ID, 1)
	if len(got) != 1 || got[0] != bob.Self() {
		t.Fatalf("server maps bob to %v, want %v", got, bob.Self())
	}
}

// securedUDP opens a loopback UDP transport with a session layer for
// id, serving h.
func securedUDP(t *testing.T, auth *likir.Authority, id *likir.Identity, h simnet.Handler) *wire.UDPTransport {
	t.Helper()
	m, err := session.NewManager(session.Config{Identity: id, CAPub: auth.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := wire.ListenUDP("127.0.0.1:0", h, wire.UDPOptions{Sessions: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// securedUDPNode boots a secured node for id on a securedUDP transport.
func securedUDPNode(t *testing.T, auth *likir.Authority, id *likir.Identity) *Node {
	t.Helper()
	n := NewNode(kadid.ID{}, Config{K: 4, Identity: id, CAPub: auth.PublicKey()})
	n.Attach(securedUDP(t, auth, id, n))
	return n
}

// TestAdmitSessionIsTheSender: over real UDP, a member that names
// another member as the sender of a request sealed under its own
// session, and presents that member's (public) credential, is refused.
// Nothing lands, the refusal is counted once, and the named member's
// contact keeps its real address.
func TestAdmitSessionIsTheSender(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	issue := func(name string) *likir.Identity {
		id, err := auth.Issue(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	srvID, bobID, malloryID := issue("server"), issue("bob"), issue("mallory")
	srv := securedUDPNode(t, auth, srvID)
	bob := securedUDPNode(t, auth, bobID)
	ctx := context.Background()
	if !bob.Ping(ctx, srv.Self()) {
		t.Fatal("bob's ping failed")
	}
	if !inTable(srv, bob.Self()) {
		t.Fatal("server did not learn bob from his ping")
	}

	mallory := securedUDP(t, auth, malloryID, nil)
	chosen := "127.0.0.1:9"
	rejected := srv.Counters().AuthRejected.At(int(wire.KindStore) - 1)
	before := rejected.Load()
	raw, err := mallory.Call(ctx, simnet.Addr(srv.Self().Addr), wire.Encode(&wire.Message{
		Kind:    wire.KindStore,
		From:    wire.Contact{ID: bobID.NodeID, Addr: chosen},
		Cred:    bobID.Credential.Marshal(),
		Target:  kadid.HashString("block"),
		Entries: []wire.Entry{{Field: "arc", Count: 1}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindUnauthorized {
		t.Fatalf("STORE naming another member answered %v, want UNAUTHORIZED", resp.Kind)
	}
	if srv.LocalStore().Len() != 0 {
		t.Fatal("refused STORE reached the store")
	}
	if got := rejected.Load() - before; got != 1 {
		t.Fatalf("AuthRejected[STORE] moved by %d, want 1", got)
	}
	got := srv.Table().Closest(bobID.NodeID, 1)
	if len(got) != 1 || got[0] != bob.Self() {
		t.Fatalf("server maps bob to %v, want %v", got, bob.Self())
	}
}

// TestSealedRequestCarriesNoCredential: no request a secured node sends
// carries a credential blob, on any transport, because the transport
// proves the sender: its own UDP session transport, a wrapper that
// hides the session layer, and a secured simnet cluster's endpoint.
// Each request is still admitted under the node's name.
func TestSealedRequestCarriesNoCredential(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	srvID, err := auth.Issue(nil, "server")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var creds [][]byte
	record := func(srv *Node) simnet.Handler {
		return simnet.HandlerFunc(func(ctx context.Context, from simnet.Addr, p []byte) ([]byte, error) {
			m, err := wire.Decode(p)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			creds = append(creds, m.Cred)
			mu.Unlock()
			return srv.HandleRPC(ctx, from, p)
		})
	}
	udpSrv := NewNode(kadid.ID{}, Config{K: 4, Identity: srvID, CAPub: auth.PublicKey()})
	udpSrv.Attach(securedUDP(t, auth, srvID, record(udpSrv)))

	cl, err := NewCluster(ClusterConfig{N: 1, Node: Config{K: 4}, Seed: 7, Authority: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	simSrv := NewNode(kadid.ID{}, Config{K: 4, Identity: srvID, CAPub: auth.PublicKey()})
	simSrv.Attach(cl.Net.Attach("server", record(simSrv)))

	for i, tc := range []struct {
		name string
		wrap bool
		sim  bool
	}{
		{"session transport", false, false},
		{"wrapped transport", true, false},
		{"secured simnet cluster", false, true},
	} {
		n, to := cl.Nodes[0], simSrv.Self()
		if !tc.sim {
			id, err := auth.Issue(nil, tc.name)
			if err != nil {
				t.Fatal(err)
			}
			n, to = NewNode(kadid.ID{}, Config{K: 4, Identity: id, CAPub: auth.PublicKey()}), udpSrv.Self()
			var tr simnet.Transport = securedUDP(t, auth, id, n)
			if tc.wrap {
				tr = struct{ simnet.Transport }{tr}
			}
			n.Attach(tr)
		}
		if !n.Ping(context.Background(), to) {
			t.Fatalf("%s: ping failed", tc.name)
		}
		mu.Lock()
		got := creds[i]
		mu.Unlock()
		if len(got) > 0 {
			t.Fatalf("%s: request carried %d credential bytes, want none", tc.name, len(got))
		}
	}
}

// TestClaimedAddressIgnored: a member's PING and STORE that name it at
// an address of its choosing are answered, and the server files the
// member at the address its transport saw the request come from — its
// simnet endpoint, or its UDP source — never at the named one.
func TestClaimedAddressIgnored(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{N: 2, Node: Config{K: 4}, Seed: 9, Authority: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	issue := func(name string) *likir.Identity {
		id, err := auth.Issue(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	udpSrv, udpBob := securedUDPNode(t, auth, issue("server")), securedUDPNode(t, auth, issue("bob"))

	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		srv, bob *Node
	}{
		{"secured simnet cluster", cl.Nodes[0], cl.Nodes[1]},
		{"udp session", udpSrv, udpBob},
	} {
		for i, req := range []wire.Message{
			{Kind: wire.KindPing},
			{Kind: wire.KindStore, Target: kadid.HashString("block"), Entries: []wire.Entry{{Field: "arc", Count: 1}}},
		} {
			req.From = wire.Contact{ID: tc.bob.Self().ID, Addr: "victim:1"}
			raw, err := tc.bob.Transport().Call(ctx, simnet.Addr(tc.srv.Self().Addr), wire.Encode(&req))
			if err != nil {
				t.Fatalf("%s: %v: %v", tc.name, req.Kind, err)
			}
			resp, err := wire.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			if want := []wire.Kind{wire.KindPong, wire.KindStoreAck}[i]; resp.Kind != want {
				t.Fatalf("%s: %v answered %v, want %v", tc.name, req.Kind, resp.Kind, want)
			}
			got := tc.srv.Table().Closest(tc.bob.Self().ID, 1)
			if len(got) != 1 || got[0] != tc.bob.Self() {
				t.Fatalf("%s: after %v the server maps bob to %v, want %v", tc.name, req.Kind, got, tc.bob.Self())
			}
		}
	}
}
