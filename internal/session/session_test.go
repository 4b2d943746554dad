package session

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dharma/internal/likir"
	"dharma/internal/obs"
)

// testPair builds an authority, two identities and their managers.
func testPair(t *testing.T) (*likir.Authority, *Manager, *Manager) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	auth, err := likir.NewAuthority(rng, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := auth.Issue(rng, "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := auth.Issue(rng, "bob")
	if err != nil {
		t.Fatal(err)
	}
	ma, err := NewManager(Config{Identity: alice, CAPub: auth.PublicKey(), Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewManager(Config{Identity: bob, CAPub: auth.PublicKey(), Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	return auth, ma, mb
}

// connect runs the full handshake from ma to mb and returns both ends'
// sessions.
func connect(t *testing.T, ma, mb *Manager) (dial, accept *Session) {
	t.Helper()
	hs, err := ma.NewHandshake("bob:1")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := mb.Accept(hs.Payload())
	if err != nil {
		t.Fatal(err)
	}
	dial, err = hs.Finish(reply)
	if err != nil {
		t.Fatal(err)
	}
	sealed := dial.Seal(nil, 0x05, 7, []byte("probe"))
	_, accept, err = mb.OpenRequest(0x05, 7, sealed)
	if err != nil {
		t.Fatal(err)
	}
	return dial, accept
}

func TestHandshakeAndSeal(t *testing.T) {
	_, ma, mb := testPair(t)
	dial, accept := connect(t, ma, mb)

	if dial.ID() != accept.ID() {
		t.Fatalf("session id mismatch: %d vs %d", dial.ID(), accept.ID())
	}
	if accept.Peer().Name != "alice" || dial.Peer().Name != "bob" {
		t.Fatalf("peer identities wrong: %q / %q", accept.Peer().Name, dial.Peer().Name)
	}

	// Request direction.
	payload := []byte("store this")
	sealed := dial.Seal(nil, 0x05, 42, payload)
	got, s, err := mb.OpenRequest(0x05, 42, sealed)
	if err != nil {
		t.Fatalf("OpenRequest: %v", err)
	}
	if string(got) != string(payload) || s != accept {
		t.Fatalf("opened %q on session %v", got, s)
	}

	// Response direction: sealed by the acceptor, opened by the dialer.
	resp := accept.Seal(nil, 0x06, 42, []byte("ack"))
	back, err := dial.Open(0x06, 42, resp)
	if err != nil {
		t.Fatalf("Open response: %v", err)
	}
	if string(back) != "ack" {
		t.Fatalf("opened %q", back)
	}

	// The dial cache must serve the session for the same address.
	if s, ok := ma.Peer("bob:1"); !ok || s != dial {
		t.Fatal("dial cache miss after handshake")
	}
}

func TestOpenRejectsTamper(t *testing.T) {
	_, ma, mb := testPair(t)
	dial, _ := connect(t, ma, mb)

	sealed := dial.Seal(nil, 0x05, 1, []byte("payload"))

	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)-1] ^= 0x01 // payload bit
	if _, _, err := mb.OpenRequest(0x05, 1, flipped); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("tampered payload accepted: %v", err)
	}
	// Wrong frame kind (reflection) and wrong request id both break the MAC.
	if _, _, err := mb.OpenRequest(0x06, 1, sealed); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("kind reflection accepted: %v", err)
	}
	if _, _, err := mb.OpenRequest(0x05, 2, sealed); !errors.Is(err, ErrBadSeal) {
		t.Fatalf("request id swap accepted: %v", err)
	}
	// Unknown session id.
	unknown := append([]byte(nil), sealed...)
	unknown[0] ^= 0xFF
	if _, _, err := mb.OpenRequest(0x05, 1, unknown); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("unknown sid: %v", err)
	}
}

func TestReplayWindow(t *testing.T) {
	_, ma, mb := testPair(t)
	dial, _ := connect(t, ma, mb)

	sealed := dial.Seal(nil, 0x05, 9, []byte("once"))
	if _, _, err := mb.OpenRequest(0x05, 9, sealed); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mb.OpenRequest(0x05, 9, sealed); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay accepted: %v", err)
	}

	// Out-of-order delivery within the window is fine, each seq once.
	a := dial.Seal(nil, 0x05, 10, []byte("a"))
	b := dial.Seal(nil, 0x05, 11, []byte("b"))
	if _, _, err := mb.OpenRequest(0x05, 11, b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mb.OpenRequest(0x05, 10, a); err != nil {
		t.Fatalf("out-of-order frame rejected: %v", err)
	}
	if _, _, err := mb.OpenRequest(0x05, 10, a); !errors.Is(err, ErrReplay) {
		t.Fatalf("out-of-order replay accepted: %v", err)
	}
}

func TestHandshakeRejectsWrongCA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	authA, _ := likir.NewAuthority(rng, time.Hour, nil)
	authB, _ := likir.NewAuthority(rng, time.Hour, nil)
	mallory, _ := authB.Issue(rng, "mallory")
	honest, _ := authA.Issue(rng, "honest")

	mm, _ := NewManager(Config{Identity: mallory, CAPub: authB.PublicKey(), Rand: rng})
	mh, _ := NewManager(Config{Identity: honest, CAPub: authA.PublicKey(), Rand: rng})

	hs, err := mm.NewHandshake("honest:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mh.Accept(hs.Payload()); !errors.Is(err, ErrHandshake) {
		t.Fatalf("foreign-CA credential accepted: %v", err)
	}
}

func TestHandshakeRejectsRevoked(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	auth, _ := likir.NewAuthority(rng, time.Hour, nil)
	evil, _ := auth.Issue(rng, "evil")
	good, _ := auth.Issue(rng, "good")
	auth.Revoke(evil.NodeID)
	set, _ := likir.NewRevocationSet(auth.PublicKey(), nil)
	if err := set.Refresh(auth.PublicKey(), auth.RevocationBundle()); err != nil {
		t.Fatal(err)
	}

	me, _ := NewManager(Config{Identity: evil, CAPub: auth.PublicKey(), Rand: rng})
	mg, _ := NewManager(Config{Identity: good, CAPub: auth.PublicKey(), Revoked: set.Contains, Rand: rng})

	hs, _ := me.NewHandshake("good:1")
	if _, err := mg.Accept(hs.Payload()); !errors.Is(err, ErrHandshake) {
		t.Fatalf("revoked credential accepted: %v", err)
	}
}

func TestDropRevokedReverifiesCachedSessions(t *testing.T) {
	auth, ma, mb := testPair(t)
	// mb must consult a live revocation set for DropRevoked to act on.
	set, _ := likir.NewRevocationSet(auth.PublicKey(), nil)
	mb.cfg.Revoked = set.Contains

	dial, _ := connect(t, ma, mb)
	if mb.Len() == 0 {
		t.Fatal("no accept-side session cached")
	}

	auth.Revoke(ma.cfg.Identity.NodeID)
	if err := set.Refresh(auth.PublicKey(), auth.RevocationBundle()); err != nil {
		t.Fatal(err)
	}
	if n := mb.DropRevoked(); n != 1 {
		t.Fatalf("DropRevoked dropped %d sessions, want 1", n)
	}

	// The amortized fast path is gone: the frame no longer opens.
	sealed := dial.Seal(nil, 0x05, 3, []byte("post-revocation"))
	if _, _, err := mb.OpenRequest(0x05, 3, sealed); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("revoked session still open: %v", err)
	}
}

func TestSessionTTLAndEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	now := time.Unix(1000, 0)
	auth, _ := likir.NewAuthority(rng, time.Hour, func() time.Time { return now })
	id, _ := auth.Issue(rng, "ttl")
	m, err := NewManager(Config{
		Identity: id, CAPub: auth.PublicKey(), Rand: rng,
		Now: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	peerMgr := func(name string) *Manager {
		pid, _ := auth.Issue(rng, name)
		pm, _ := NewManager(Config{Identity: pid, CAPub: auth.PublicKey(), Rand: rng,
			Now: func() time.Time { return now }})
		return pm
	}
	dialTo := func(addr string, pm *Manager) *Session {
		hs, err := m.NewHandshake(addr)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := pm.Accept(hs.Payload())
		if err != nil {
			t.Fatal(err)
		}
		s, err := hs.Finish(reply)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	dialTo("p1:1", peerMgr("p1"))
	if _, ok := m.Peer("p1:1"); !ok {
		t.Fatal("fresh session missing")
	}
	// Idle past the TTL: the cache treats it as gone.
	now = now.Add(DefaultTTL + time.Minute)
	if _, ok := m.Peer("p1:1"); ok {
		t.Fatal("expired session served")
	}

	// Cap eviction: at DefaultMaxSessions, a further dial evicts the
	// idlest. Fillers stand in for handshaked sessions up to the cap, so
	// the case costs no 4,096 handshakes.
	dialTo("p2:1", peerMgr("p2"))
	now = now.Add(time.Second)
	fill := DefaultMaxSessions - 1 - m.Len()
	m.mu.Lock()
	for i := range fill {
		m.dial[fmt.Sprintf("filler:%d", i)] = newSession(m, uint64(i), nil, make([]byte, keyLen))
	}
	m.mu.Unlock()
	now = now.Add(time.Second)
	dialTo("p3:1", peerMgr("p3"))
	if m.Len() != DefaultMaxSessions {
		t.Fatalf("cache holds %d sessions, want the cap %d", m.Len(), DefaultMaxSessions)
	}
	now = now.Add(time.Second)
	dialTo("p4:1", peerMgr("p4"))
	if m.Len() > DefaultMaxSessions {
		t.Fatalf("cache above cap: %d", m.Len())
	}
	if _, ok := m.Peer("p2:1"); ok {
		t.Fatal("idlest session survived eviction")
	}
	if _, ok := m.Peer("p4:1"); !ok {
		t.Fatal("newest session evicted")
	}
}

func TestInstrument(t *testing.T) {
	_, ma, mb := testPair(t)
	rega, regb := obs.NewRegistry(), obs.NewRegistry()
	ma.Instrument(rega)
	mb.Instrument(regb)

	dial, _ := connect(t, ma, mb)
	sealed := dial.Seal(nil, 0x05, 5, []byte("x"))
	if _, _, err := mb.OpenRequest(0x05, 5, sealed); err != nil {
		t.Fatal(err)
	}
	mb.OpenRequest(0x05, 5, sealed) //nolint:errcheck // deliberate replay

	am := ma.metrics.Load()
	bm := mb.metrics.Load()
	if am.handshake.Count() != 1 {
		t.Fatalf("handshake observations: %d", am.handshake.Count())
	}
	if bm.accepted.Load() != 1 || bm.replays.Load() != 1 {
		t.Fatalf("accepted=%d replays=%d", bm.accepted.Load(), bm.replays.Load())
	}
}

func BenchmarkSeal(b *testing.B) {
	ma, mb := benchPair(b)
	dial := benchConnect(b, ma, mb)
	payload := make([]byte, 512)
	dst := make([]byte, 0, len(payload)+Overhead)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dial.Seal(dst[:0], 0x05, uint64(i), payload)
	}
}

func BenchmarkSealOpen(b *testing.B) {
	ma, mb := benchPair(b)
	dial := benchConnect(b, ma, mb)
	payload := make([]byte, 512)
	dst := make([]byte, 0, len(payload)+Overhead)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dial.Seal(dst[:0], 0x05, uint64(i), payload)
		if _, _, err := mb.OpenRequest(0x05, uint64(i), dst); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPair(b *testing.B) (*Manager, *Manager) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	auth, err := likir.NewAuthority(rng, time.Hour, nil)
	if err != nil {
		b.Fatal(err)
	}
	ida, _ := auth.Issue(rng, "a")
	idb, _ := auth.Issue(rng, "b")
	ma, _ := NewManager(Config{Identity: ida, CAPub: auth.PublicKey(), Rand: rng})
	mb, _ := NewManager(Config{Identity: idb, CAPub: auth.PublicKey(), Rand: rng})
	return ma, mb
}

func benchConnect(b *testing.B, ma, mb *Manager) *Session {
	b.Helper()
	hs, err := ma.NewHandshake("b:1")
	if err != nil {
		b.Fatal(err)
	}
	reply, err := mb.Accept(hs.Payload())
	if err != nil {
		b.Fatal(err)
	}
	s, err := hs.Finish(reply)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func TestManagerConfigValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	rng := rand.New(rand.NewSource(3))
	auth, _ := likir.NewAuthority(rng, time.Hour, nil)
	id, _ := auth.Issue(rng, "x")
	if _, err := NewManager(Config{Identity: id}); err == nil {
		t.Fatal("missing CAPub accepted")
	}
	if _, err := NewManager(Config{Identity: id, CAPub: auth.PublicKey()}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	_ = fmt.Sprintf // keep fmt imported if assertions change
}

// TestPeerFromContextNilPeer: a nil credential is no peer, and it
// shadows the peer an outer context carries.
func TestPeerFromContextNilPeer(t *testing.T) {
	if _, ok := PeerFromContext(context.Background()); ok {
		t.Fatal("empty context reports a peer")
	}
	if cred, ok := PeerFromContext(WithPeer(context.Background(), nil)); ok || cred != nil {
		t.Fatalf("nil peer reported as (%v, %v), want (nil, false)", cred, ok)
	}
	_, ma, _ := testPair(t)
	outer := WithPeer(context.Background(), &ma.cfg.Identity.Credential)
	if cred, ok := PeerFromContext(outer); !ok || cred.NodeID != ma.cfg.Identity.NodeID {
		t.Fatalf("peer reported as (%v, %v), want alice", cred, ok)
	}
	if _, ok := PeerFromContext(WithPeer(outer, nil)); ok {
		t.Fatal("nil peer does not shadow the outer one")
	}
}
