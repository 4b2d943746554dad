package wire

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dharma/internal/likir"
	"dharma/internal/session"
	"dharma/internal/simnet"
)

// newTestCA issues a shared authority and n identities for transport
// session tests.
func newTestCA(t *testing.T, n int) (*likir.Authority, []*likir.Identity) {
	t.Helper()
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	ids := make([]*likir.Identity, n)
	for i := range ids {
		id, err := auth.Issue(nil, "node-"+string(rune('a'+i)))
		if err != nil {
			t.Fatalf("Issue: %v", err)
		}
		ids[i] = id
	}
	return auth, ids
}

func newSecuredTransport(t *testing.T, auth *likir.Authority, id *likir.Identity, h simnet.Handler) *UDPTransport {
	t.Helper()
	mgr, err := session.NewManager(session.Config{Identity: id, CAPub: auth.PublicKey()})
	if err != nil {
		t.Fatalf("session.NewManager: %v", err)
	}
	tr, err := ListenUDP("127.0.0.1:0", h, UDPOptions{
		Timeout:  time.Second,
		Sessions: mgr,
	})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestUDPSessionRoundTrip(t *testing.T) {
	auth, ids := newTestCA(t, 2)

	// The server handler must see the transport-authenticated peer
	// identity on its context — that is what lets the overlay skip the
	// per-message credential check.
	var sawPeer atomic.Bool
	srv := newSecuredTransport(t, auth, ids[0], simnet.HandlerFunc(
		func(ctx context.Context, from simnet.Addr, p []byte) ([]byte, error) {
			if cred, ok := session.PeerFromContext(ctx); ok && cred.NodeID == ids[1].NodeID {
				sawPeer.Store(true)
			}
			return append([]byte("ok:"), p...), nil
		}))
	cli := newSecuredTransport(t, auth, ids[1], simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }))

	for i := 0; i < 3; i++ {
		resp, err := cli.Call(context.Background(), srv.Addr(), []byte("ping"))
		if err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
		if !bytes.Equal(resp, []byte("ok:ping")) {
			t.Fatalf("resp = %q", resp)
		}
	}
	if !sawPeer.Load() {
		t.Fatal("handler never saw the session peer identity on its context")
	}
	// One session serves all three calls: the dial cache holds exactly
	// one entry and the handshake ran once.
	if n := cli.Sessions().Len(); n != 1 {
		t.Fatalf("client session cache = %d entries, want 1", n)
	}
}

func TestUDPSessionRejectsPlainCaller(t *testing.T) {
	auth, ids := newTestCA(t, 1)
	srv := newSecuredTransport(t, auth, ids[0], simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) {
			t.Error("handler ran for an unauthenticated request")
			return nil, nil
		}))

	// An open client (no session layer) is refused with a typed
	// ErrUnauthorized, not served.
	cli, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }), UDPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Call(context.Background(), srv.Addr(), Encode(&Message{Kind: KindPing})); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("plain request = %v, want ErrUnauthorized", err)
	}
	if srv.AuthRejected() == 0 {
		t.Fatal("server did not count the rejection")
	}
}

func TestUDPSessionRejectsWrongCA(t *testing.T) {
	auth, ids := newTestCA(t, 1)
	srv := newSecuredTransport(t, auth, ids[0], simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return []byte("x"), nil }))

	// A client certified by a different authority fails the handshake:
	// the server never replies to its HELLO, so the dial times out.
	otherAuth, otherIDs := newTestCA(t, 1)
	cli := newSecuredTransport(t, otherAuth, otherIDs[0], simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }))

	if _, err := cli.Call(context.Background(), srv.Addr(), []byte("ping")); !errors.Is(err, simnet.ErrTimeout) {
		t.Fatalf("foreign-CA call: want handshake timeout, got %v", err)
	}
	if srv.AuthRejected() == 0 {
		t.Fatal("server did not count the failed handshake")
	}
}

func TestUDPSessionStaleRehandshake(t *testing.T) {
	auth, ids := newTestCA(t, 2)
	echo := simnet.HandlerFunc(
		func(_ context.Context, _ simnet.Addr, p []byte) ([]byte, error) {
			return append([]byte(nil), p...), nil
		})

	srv := newSecuredTransport(t, auth, ids[0], echo)
	cli := newSecuredTransport(t, auth, ids[1], simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }))

	if _, err := cli.Call(context.Background(), srv.Addr(), []byte("one")); err != nil {
		t.Fatalf("first call: %v", err)
	}

	// The server "restarts": a fresh transport (fresh session manager, no
	// accept-side state) binds the same address. The client still holds a
	// session for that address; its next sealed request must earn a
	// stale-session hint and transparently re-handshake.
	addr := srv.Addr()
	srv.Close()
	mgr2, err := session.NewManager(session.Config{Identity: ids[0], CAPub: auth.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	var srv2 *UDPTransport
	for i := 0; ; i++ {
		srv2, err = ListenUDP(string(addr), echo, UDPOptions{
			Timeout: time.Second, Sessions: mgr2,
		})
		if err == nil {
			break
		}
		if i == 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	resp, err := cli.Call(context.Background(), addr, []byte("two"))
	if err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
	if !bytes.Equal(resp, []byte("two")) {
		t.Fatalf("resp = %q", resp)
	}
}
