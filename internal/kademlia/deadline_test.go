package kademlia

import (
	"context"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/session"
	"dharma/internal/wire"
)

// TestDeadlinePropagationSheds drives HandleRPC directly — the way a
// UDP transport does, with no caller context attached — and checks that
// the wire-level Deadline field alone is enough for the server to shed
// work that is dead on arrival.
func TestDeadlinePropagationSheds(t *testing.T) {
	n := NewNode(kadid.HashString("server"), Config{K: 4, ChaosDelay: 5 * time.Millisecond})

	// A 100µs budget against a 5ms chaos delay: the request is dead long
	// before dispatch. No reply must be produced.
	dead := wire.Encode(&wire.Message{Kind: wire.KindPing, Deadline: 100})
	if out, err := n.HandleRPC(context.Background(), "caller", dead); err == nil {
		t.Fatalf("expired request served anyway: %q", out)
	}
	shed := n.Counters().DeadlineShed.At(int(wire.KindPing) - 1)
	if got := shed.Load(); got != 1 {
		t.Fatalf("DeadlineShed[PING] = %d, want 1", got)
	}

	// No budget on the wire = no server-side deadline: the same request
	// without the stamp rides out the chaos delay and gets its PONG.
	alive := wire.Encode(&wire.Message{Kind: wire.KindPing})
	out, err := n.HandleRPC(context.Background(), "caller", alive)
	if err != nil {
		t.Fatalf("unstamped request: %v", err)
	}
	resp, err := wire.Decode(out)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Kind != wire.KindPong {
		t.Fatalf("resp = %v, want PONG", resp.Kind)
	}
	if got := shed.Load(); got != 1 {
		t.Fatalf("DeadlineShed[PING] after control = %d, want 1", got)
	}
}

// TestCallStampsDeadline checks the client half: a context deadline is
// translated into the message's µs budget for the receiving side.
func TestCallStampsDeadline(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 2, Node: Config{K: 4, Alpha: 2}, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	msg := &wire.Message{Kind: wire.KindPing}
	if err := cl.Nodes[0].call(ctx, cl.Nodes[1].Self(), msg, new(wire.Message)); err != nil {
		t.Fatalf("call: %v", err)
	}
	// ~1h in µs, minus the time spent reaching callOnce.
	if msg.Deadline == 0 || msg.Deadline > uint64(time.Hour/time.Microsecond) {
		t.Fatalf("stamped Deadline = %dµs, want ~1h", msg.Deadline)
	}
	// Without a context deadline the stamp must stay zero — "no budget"
	// must never be encoded as a huge finite one.
	msg2 := &wire.Message{Kind: wire.KindPing}
	if err := cl.Nodes[0].call(context.Background(), cl.Nodes[1].Self(), msg2, new(wire.Message)); err != nil {
		t.Fatalf("call: %v", err)
	}
	if msg2.Deadline != 0 {
		t.Fatalf("stamped Deadline = %d without a ctx deadline, want 0", msg2.Deadline)
	}
}

// TestSessionPeerSkipsCredentialCheck verifies the admission fast path:
// a request arriving over an authenticated transport session needs no
// per-message credential, while the same request without the session
// context is refused UNAUTHORIZED.
func TestSessionPeerSkipsCredentialCheck(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	server, err := auth.Issue(nil, "server")
	if err != nil {
		t.Fatal(err)
	}
	client, err := auth.Issue(nil, "client")
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(kadid.ID{}, Config{K: 4, Identity: server, CAPub: auth.PublicKey()})

	// The message deliberately carries no credential blob: over a session
	// transport the handshake already proved the identity.
	payload := wire.Encode(&wire.Message{
		Kind: wire.KindPing,
		From: wire.Contact{ID: client.NodeID, Addr: "client-addr"},
	})

	ctx := session.WithPeer(context.Background(), &client.Credential)
	out, err := n.HandleRPC(ctx, "client-addr", payload)
	if err != nil {
		t.Fatalf("HandleRPC: %v", err)
	}
	resp, err := wire.Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindPong {
		t.Fatalf("session-authenticated ping answered %v, want PONG", resp.Kind)
	}

	// Same request, no session on the context: it proves no sender.
	out, err = n.HandleRPC(context.Background(), "client-addr", payload)
	if err != nil {
		t.Fatalf("HandleRPC: %v", err)
	}
	resp, err = wire.Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindUnauthorized {
		t.Fatalf("credential-less ping answered %v, want UNAUTHORIZED", resp.Kind)
	}
	if got := n.Counters().AuthRejected.At(int(wire.KindPing) - 1).Load(); got != 1 {
		t.Fatalf("AuthRejected[PING] = %d, want 1", got)
	}

	// A session for a DIFFERENT identity than the claimed sender must not
	// satisfy admission (a peer cannot borrow someone else's session).
	mallory, err := auth.Issue(nil, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	ctx = session.WithPeer(context.Background(), &mallory.Credential)
	out, err = n.HandleRPC(ctx, "client-addr", payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := wire.Decode(out); resp.Kind != wire.KindUnauthorized {
		t.Fatalf("mismatched session identity answered %v, want UNAUTHORIZED", resp.Kind)
	}
}

// TestRevocationBeatsSession: a revoked peer is cut off even when its
// transport session is still live — the bundle check runs before the
// session fast path.
func TestRevocationBeatsSession(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	server, err := auth.Issue(nil, "server")
	if err != nil {
		t.Fatal(err)
	}
	client, err := auth.Issue(nil, "client")
	if err != nil {
		t.Fatal(err)
	}
	set, err := likir.NewRevocationSet(auth.PublicKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(kadid.ID{}, Config{
		K: 4, Identity: server, CAPub: auth.PublicKey(), Revoked: set.Contains,
	})

	payload := wire.Encode(&wire.Message{
		Kind: wire.KindPing,
		From: wire.Contact{ID: client.NodeID, Addr: "client-addr"},
	})
	ctx := session.WithPeer(context.Background(), &client.Credential)
	out, err := n.HandleRPC(ctx, "client-addr", payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := wire.Decode(out); resp.Kind != wire.KindPong {
		t.Fatalf("pre-revocation ping answered %v, want PONG", resp.Kind)
	}

	auth.Revoke(client.NodeID)
	if err := set.Refresh(auth.PublicKey(), auth.RevocationBundle()); err != nil {
		t.Fatal(err)
	}
	out, err = n.HandleRPC(ctx, "client-addr", payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := wire.Decode(out); resp.Kind != wire.KindUnauthorized {
		t.Fatalf("post-revocation ping answered %v, want UNAUTHORIZED", resp.Kind)
	}
}
