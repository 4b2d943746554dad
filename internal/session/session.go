// Package session implements the authenticated-session layer of the
// secure wire transport. A session is established by a two-message
// handshake — an exchange of Likir credentials and a challenge
// signature over ephemeral X25519 keys — after which every datagram
// between the peers is authenticated by a cheap truncated HMAC instead
// of a per-call Ed25519 signature and credential verification.
//
// Protocol (SIGMA-flavoured, authentication only — DHT payloads are
// public, so frames are MACed, not encrypted):
//
//	init  → resp: HELLO       cred_i, eph_i, nonce, Sig_i(eph_i ‖ nonce)
//	resp  → init: HELLO_REPLY sid, cred_r, eph_r, Sig_r(eph_i ‖ nonce ‖ eph_r ‖ sid)
//	key = HKDF-SHA256(X25519(eph_i, eph_r), salt=nonce, info="dharma…" ‖ sid)
//
// The initiator's signature binds its credential to its ephemeral key,
// so a replayed HELLO yields the attacker a session it cannot use (it
// lacks the ephemeral private key and thus the MAC key). The
// responder's signature covers the full transcript, so the initiator
// authenticates the responder as soon as the reply verifies; the
// responder authenticates the initiator implicitly on the first frame
// that carries a valid MAC (key confirmation). Every sealed frame MACs
// the transport frame kind, the request id, the session id, a
// monotonic per-direction sequence number and the payload; receivers
// keep a 64-entry sliding replay window per direction.
//
// Sessions are cached per peer and expire on idleness; when a fresh
// revocation bundle loads, DropRevoked re-checks every cached peer so
// a revoked identity loses its amortized fast path immediately.
package session

import (
	"context"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hkdf"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/obs"
)

// Errors reported by the session layer.
var (
	// ErrHandshake wraps every handshake rejection: bad credential,
	// revoked peer, malformed or mis-signed hello.
	ErrHandshake = errors.New("session: handshake rejected")
	// ErrUnknownSession means a sealed frame referenced a session id the
	// receiver does not hold (expired, evicted, or the node restarted).
	// The sender should re-handshake.
	ErrUnknownSession = errors.New("session: unknown session")
	// ErrBadSeal means a sealed frame failed MAC verification.
	ErrBadSeal = errors.New("session: invalid frame MAC")
	// ErrReplay means a sealed frame carried an already-seen (or far
	// stale) sequence number.
	ErrReplay = errors.New("session: replayed frame")
)

// Bounds of the session cache: it holds at most DefaultMaxSessions
// sessions (dial + accept), evicting the idlest at the cap, and expires
// sessions idle longer than DefaultTTL.
const (
	DefaultMaxSessions = 4096
	DefaultTTL         = 10 * time.Minute
)

// Sealed frame layout: 8-byte session id, 8-byte sequence number,
// 16-byte truncated HMAC-SHA256 tag, then the payload.
const (
	TagLen    = 16
	Overhead  = 8 + 8 + TagLen
	keyLen    = 32
	nonceLen  = 16
	windowLen = 64 // replay window width in sequence numbers
)

// Domain-separation labels for the handshake signatures and the KDF.
var (
	labelHelloInit  = []byte("dharma/session hello-init v1")
	labelHelloReply = []byte("dharma/session hello-reply v1")
	labelMACKey     = "dharma/session mac-key v1"
)

// Config configures a Manager.
type Config struct {
	// Identity is this node's Likir identity; required.
	Identity *likir.Identity
	// CAPub is the Authority key peer credentials must verify against;
	// required.
	CAPub ed25519.PublicKey
	// Revoked reports whether a node identifier is revoked; nil means
	// nothing is.
	Revoked func(kadid.ID) bool
	// Now is the clock used for TTLs and credential windows; nil means
	// time.Now.
	Now func() time.Time
	// Rand seeds ephemeral keys, nonces and session ids; nil means
	// crypto/rand. Tests inject deterministic readers.
	Rand io.Reader
}

// Manager owns the session caches of one transport: outbound sessions
// keyed by remote address, inbound sessions keyed by the id this node
// assigned. All methods are safe for concurrent use.
type Manager struct {
	cfg      Config
	credBlob []byte

	mu     sync.Mutex
	dial   map[string]*Session
	accept map[uint64]*Session

	metrics atomic.Pointer[managerMetrics]
}

type managerMetrics struct {
	handshake *obs.Histogram
	accepted  *obs.Counter
	rejected  *obs.Counter
	replays   *obs.Counter
}

// NewManager validates cfg and builds an empty manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Identity == nil {
		return nil, errors.New("session: Config.Identity is required")
	}
	if len(cfg.CAPub) != ed25519.PublicKeySize {
		return nil, errors.New("session: Config.CAPub is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	return &Manager{
		cfg:      cfg,
		credBlob: cfg.Identity.Credential.Marshal(),
		dial:     make(map[string]*Session),
		accept:   make(map[uint64]*Session),
	}, nil
}

// Instrument registers the session layer's instruments on reg: the
// dial-side handshake latency histogram, accept/reject counters, the
// replay-drop counter and the cache-size gauge. nil reg is a no-op.
func (m *Manager) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.metrics.Store(&managerMetrics{
		handshake: reg.Histogram("dharma_session_handshake_seconds",
			"Dial-side session handshake latency (crypto + network round trip)."),
		accepted: reg.Counter("dharma_session_accepted_total",
			"Inbound session handshakes accepted."),
		rejected: reg.Counter("dharma_session_rejected_total",
			"Inbound session handshakes rejected (bad credential, signature, or revoked)."),
		replays: reg.Counter("dharma_session_replay_dropped_total",
			"Sealed frames dropped by the replay window."),
	})
	reg.GaugeFunc("dharma_session_cache_size",
		"Live sessions held by the transport (dial + accept side).",
		func() int64 { return int64(m.Len()) })
}

// Len reports the number of cached sessions across both directions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.dial) + len(m.accept)
}

// Peer returns the live cached outbound session for addr, if any. An
// idle-expired session is dropped and reported as a miss.
func (m *Manager) Peer(addr string) (*Session, bool) {
	now := m.cfg.Now().UnixNano()
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.dial[addr]
	if !ok {
		return nil, false
	}
	if now-s.lastUsed.Load() > int64(DefaultTTL) {
		delete(m.dial, addr)
		return nil, false
	}
	return s, true
}

// DropPeer forgets the outbound session for addr (the peer restarted or
// rejected our session id); the next call re-handshakes.
func (m *Manager) DropPeer(addr string) {
	m.mu.Lock()
	delete(m.dial, addr)
	m.mu.Unlock()
}

// DropRevoked re-verifies every cached session against the (freshly
// loaded) revocation state and the credential validity window, dropping
// the ones that no longer pass. It returns how many were dropped.
func (m *Manager) DropRevoked() int {
	now := m.cfg.Now
	bad := func(s *Session) bool {
		if m.cfg.Revoked != nil && m.cfg.Revoked(s.peer.NodeID) {
			return true
		}
		return likir.VerifyCredential(m.cfg.CAPub, s.peer, now) != nil
	}
	dropped := 0
	m.mu.Lock()
	defer m.mu.Unlock()
	for addr, s := range m.dial {
		if bad(s) {
			delete(m.dial, addr)
			dropped++
		}
	}
	for id, s := range m.accept {
		if s != nil && bad(s) {
			delete(m.accept, id)
			dropped++
		}
	}
	return dropped
}

// evictLocked makes room for one more session by dropping expired
// entries, then (still at the cap) the idlest session. Callers hold
// m.mu.
func (m *Manager) evictLocked() {
	if len(m.dial)+len(m.accept) < DefaultMaxSessions {
		return
	}
	now := m.cfg.Now().UnixNano()
	ttl := int64(DefaultTTL)
	var idleKeyD string
	var idleKeyA uint64
	var idleS *Session
	oldest := int64(1<<63 - 1)
	for addr, s := range m.dial {
		last := s.lastUsed.Load()
		if now-last > ttl {
			delete(m.dial, addr)
			continue
		}
		if last < oldest {
			oldest, idleS, idleKeyD = last, s, addr
		}
	}
	for id, s := range m.accept {
		if s == nil {
			continue // reserved by an in-flight Accept
		}
		last := s.lastUsed.Load()
		if now-last > ttl {
			delete(m.accept, id)
			continue
		}
		if last < oldest {
			oldest, idleS, idleKeyD, idleKeyA = last, s, "", id
		}
	}
	if len(m.dial)+len(m.accept) < DefaultMaxSessions {
		return
	}
	if idleS == nil {
		return
	}
	if idleKeyD != "" {
		delete(m.dial, idleKeyD)
	} else {
		delete(m.accept, idleKeyA)
	}
}

// verifyPeer checks a peer credential against the CA key and the
// revocation state.
func (m *Manager) verifyPeer(cred *likir.Credential) error {
	if err := likir.VerifyCredential(m.cfg.CAPub, cred, m.cfg.Now); err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if m.cfg.Revoked != nil && m.cfg.Revoked(cred.NodeID) {
		return fmt.Errorf("%w: peer %s is revoked", ErrHandshake, cred.NodeID)
	}
	return nil
}

// Session is one authenticated direction of traffic between two peers:
// the dialer seals requests and opens responses; the acceptor opens
// requests and seals responses. The MAC key is shared, the sequence
// spaces are per direction.
type Session struct {
	id   uint64
	peer *likir.Credential // the authenticated remote identity
	key  [keyLen]byte

	sendSeq  atomic.Uint64
	recvMu   sync.Mutex
	recvMax  uint64 // highest sequence number accepted
	recvBits uint64 // bitmap of the windowLen numbers below recvMax

	lastUsed atomic.Int64 // unix nanos of last successful seal/open
	mgr      *Manager

	macPool sync.Pool // *macState keyed by this session's MAC key
}

// macState is the pooled per-computation scratch: the HMAC instance
// plus the header and digest buffers, kept together on the heap so the
// interface calls in mac() have nothing to escape.
type macState struct {
	h   hash.Hash
	hdr [1 + 8 + 8 + 8]byte
	sum [sha256.Size]byte
}

func newSession(m *Manager, id uint64, peer *likir.Credential, key []byte) *Session {
	s := &Session{id: id, peer: peer, mgr: m}
	copy(s.key[:], key)
	s.macPool.New = func() any {
		return &macState{h: hmac.New(sha256.New, s.key[:])}
	}
	s.lastUsed.Store(m.cfg.Now().UnixNano())
	return s
}

// ID returns the responder-assigned session identifier.
func (s *Session) ID() uint64 { return s.id }

// Peer returns the authenticated remote credential.
func (s *Session) Peer() *likir.Credential { return s.peer }

// mac computes the truncated frame MAC into tag. The HMAC state is
// pooled per session so steady-state seal/open performs no allocation.
func (s *Session) mac(tag *[TagLen]byte, kind byte, reqID, seq uint64, payload []byte) {
	st := s.macPool.Get().(*macState)
	st.h.Reset()
	st.hdr[0] = kind
	binary.BigEndian.PutUint64(st.hdr[1:9], reqID)
	binary.BigEndian.PutUint64(st.hdr[9:17], s.id)
	binary.BigEndian.PutUint64(st.hdr[17:25], seq)
	st.h.Write(st.hdr[:])
	st.h.Write(payload)
	copy(tag[:], st.h.Sum(st.sum[:0]))
	s.macPool.Put(st)
}

// Seal appends the sealed form of payload to dst and returns the
// extended slice: [sid ‖ seq ‖ tag ‖ payload], where kind and reqID are
// the transport frame fields the seal is bound to.
func (s *Session) Seal(dst []byte, kind byte, reqID uint64, payload []byte) []byte {
	seq := s.sendSeq.Add(1)
	var tag [TagLen]byte
	s.mac(&tag, kind, reqID, seq, payload)
	dst = binary.BigEndian.AppendUint64(dst, s.id)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = append(dst, tag[:]...)
	dst = append(dst, payload...)
	s.lastUsed.Store(s.mgr.cfg.Now().UnixNano())
	return dst
}

// Open verifies a sealed frame and returns the inner payload, aliasing
// the input (no copy). The MAC is checked before the replay window is
// consulted or advanced, so unauthenticated traffic cannot poison the
// window.
func (s *Session) Open(kind byte, reqID uint64, sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, fmt.Errorf("%w: short frame", ErrBadSeal)
	}
	sid := binary.BigEndian.Uint64(sealed[0:8])
	seq := binary.BigEndian.Uint64(sealed[8:16])
	if sid != s.id {
		return nil, ErrUnknownSession
	}
	payload := sealed[Overhead:]
	var want [TagLen]byte
	s.mac(&want, kind, reqID, seq, payload)
	if subtle.ConstantTimeCompare(want[:], sealed[16:16+TagLen]) != 1 {
		return nil, ErrBadSeal
	}
	if !s.admitSeq(seq) {
		if mm := s.mgr.metrics.Load(); mm != nil {
			mm.replays.Inc()
		}
		return nil, ErrReplay
	}
	s.lastUsed.Store(s.mgr.cfg.Now().UnixNano())
	return payload, nil
}

// admitSeq implements the sliding replay window: sequence numbers may
// arrive out of order within windowLen of the highest seen, each at
// most once.
func (s *Session) admitSeq(seq uint64) bool {
	if seq == 0 {
		return false
	}
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	switch {
	case seq > s.recvMax:
		shift := seq - s.recvMax
		if shift >= windowLen {
			s.recvBits = 0
		} else {
			s.recvBits <<= shift
		}
		s.recvBits |= 1 // bit 0 = recvMax itself
		s.recvMax = seq
		return true
	case s.recvMax-seq >= windowLen:
		return false // too old to track
	default:
		bit := uint64(1) << (s.recvMax - seq)
		if s.recvBits&bit != 0 {
			return false // already seen
		}
		s.recvBits |= bit
		return true
	}
}

// Handshake is the dial-side state of an in-flight handshake: built by
// NewHandshake, completed by Finish with the responder's reply.
type Handshake struct {
	mgr     *Manager
	addr    string
	ephPriv *ecdh.PrivateKey
	nonce   [nonceLen]byte
	hello   []byte
	started time.Time
}

// NewHandshake builds the HELLO payload for a session with the peer at
// addr. The transport sends it and hands the reply to Finish.
func (m *Manager) NewHandshake(addr string) (*Handshake, error) {
	ephPriv, err := ecdh.X25519().GenerateKey(m.cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("session: ephemeral key: %w", err)
	}
	h := &Handshake{mgr: m, addr: addr, ephPriv: ephPriv, started: time.Now()}
	if _, err := io.ReadFull(m.cfg.Rand, h.nonce[:]); err != nil {
		return nil, fmt.Errorf("session: nonce: %w", err)
	}
	ephPub := ephPriv.PublicKey().Bytes()

	tbs := make([]byte, 0, len(labelHelloInit)+len(ephPub)+nonceLen)
	tbs = append(tbs, labelHelloInit...)
	tbs = append(tbs, ephPub...)
	tbs = append(tbs, h.nonce[:]...)
	sig := ed25519.Sign(m.cfg.Identity.Priv, tbs)

	var b []byte
	b = appendBlob(b, m.credBlob)
	b = append(b, ephPub...)
	b = append(b, h.nonce[:]...)
	b = appendBlob(b, sig)
	h.hello = b
	return h, nil
}

// Payload returns the HELLO bytes to send.
func (h *Handshake) Payload() []byte { return h.hello }

// Finish verifies the responder's HELLO_REPLY, derives the session key
// and installs the session in the dial cache. The responder credential
// is checked against the CA key and the revocation state; its signature
// must cover the full handshake transcript.
func (h *Handshake) Finish(reply []byte) (*Session, error) {
	m := h.mgr
	r := reply
	sid, r, err := readUint64(r)
	if err != nil {
		return nil, fmt.Errorf("%w: sid: %v", ErrHandshake, err)
	}
	credBlob, r, err := readBlobBytes(r)
	if err != nil {
		return nil, fmt.Errorf("%w: credential: %v", ErrHandshake, err)
	}
	if len(r) < 32 {
		return nil, fmt.Errorf("%w: truncated ephemeral", ErrHandshake)
	}
	respEph := r[:32]
	r = r[32:]
	sig, r, err := readBlobBytes(r)
	if err != nil || len(r) != 0 {
		return nil, fmt.Errorf("%w: signature", ErrHandshake)
	}

	cred, err := likir.UnmarshalCredential(credBlob)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if err := m.verifyPeer(cred); err != nil {
		return nil, err
	}

	initEph := h.ephPriv.PublicKey().Bytes()
	tbs := replyTBS(initEph, h.nonce[:], respEph, sid)
	if !ed25519.Verify(cred.Pub, tbs, sig) {
		return nil, fmt.Errorf("%w: transcript signature check failed", ErrHandshake)
	}

	key, err := deriveKey(h.ephPriv, respEph, h.nonce[:], sid)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	s := newSession(m, sid, cred, key)

	m.mu.Lock()
	m.evictLocked()
	m.dial[h.addr] = s
	m.mu.Unlock()

	if mm := m.metrics.Load(); mm != nil {
		mm.handshake.Observe(time.Since(h.started))
	}
	return s, nil
}

// Accept verifies an inbound HELLO, creates the accept-side session and
// returns the HELLO_REPLY payload to send back. The initiator is only
// provisionally trusted until its first valid MACed frame arrives (key
// confirmation); a replayed HELLO therefore costs the attacker nothing
// but costs us one cache slot until the TTL reaps it — bounded by
// DefaultMaxSessions and the transport's admission gate.
func (m *Manager) Accept(init []byte) ([]byte, error) {
	reject := func(err error) ([]byte, error) {
		if mm := m.metrics.Load(); mm != nil {
			mm.rejected.Inc()
		}
		return nil, err
	}
	r := init
	credBlob, r, err := readBlobBytes(r)
	if err != nil {
		return reject(fmt.Errorf("%w: credential: %v", ErrHandshake, err))
	}
	if len(r) < 32+nonceLen {
		return reject(fmt.Errorf("%w: truncated hello", ErrHandshake))
	}
	initEph := r[:32]
	nonce := r[32 : 32+nonceLen]
	r = r[32+nonceLen:]
	sig, r, err := readBlobBytes(r)
	if err != nil || len(r) != 0 {
		return reject(fmt.Errorf("%w: signature", ErrHandshake))
	}

	cred, err := likir.UnmarshalCredential(credBlob)
	if err != nil {
		return reject(fmt.Errorf("%w: %v", ErrHandshake, err))
	}
	if err := m.verifyPeer(cred); err != nil {
		return reject(err)
	}
	tbs := make([]byte, 0, len(labelHelloInit)+32+nonceLen)
	tbs = append(tbs, labelHelloInit...)
	tbs = append(tbs, initEph...)
	tbs = append(tbs, nonce...)
	if !ed25519.Verify(cred.Pub, tbs, sig) {
		return reject(fmt.Errorf("%w: hello signature check failed", ErrHandshake))
	}

	ephPriv, err := ecdh.X25519().GenerateKey(m.cfg.Rand)
	if err != nil {
		return reject(fmt.Errorf("session: ephemeral key: %w", err))
	}
	var sidBuf [8]byte
	if _, err := io.ReadFull(m.cfg.Rand, sidBuf[:]); err != nil {
		return reject(fmt.Errorf("session: session id: %w", err))
	}
	sid := binary.BigEndian.Uint64(sidBuf[:])
	respEph := ephPriv.PublicKey().Bytes()

	// Reserve the id before deriving: the KDF binds the session id, so
	// it must be final when the key material is produced.
	m.mu.Lock()
	m.evictLocked()
	for {
		if _, taken := m.accept[sid]; !taken && sid != 0 {
			break
		}
		sid++
	}
	m.accept[sid] = nil
	m.mu.Unlock()

	key, err := deriveKey(ephPriv, initEph, nonce, sid)
	if err != nil {
		m.mu.Lock()
		delete(m.accept, sid)
		m.mu.Unlock()
		return reject(fmt.Errorf("%w: %v", ErrHandshake, err))
	}
	s := newSession(m, sid, cred, key)
	m.mu.Lock()
	m.accept[sid] = s
	m.mu.Unlock()

	replySig := ed25519.Sign(m.cfg.Identity.Priv, replyTBS(initEph, nonce, respEph, sid))
	var b []byte
	b = binary.BigEndian.AppendUint64(b, sid)
	b = appendBlob(b, m.credBlob)
	b = append(b, respEph...)
	b = appendBlob(b, replySig)

	if mm := m.metrics.Load(); mm != nil {
		mm.accepted.Inc()
	}
	return b, nil
}

// OpenRequest resolves the accept-side session a sealed request
// references and opens it.
func (m *Manager) OpenRequest(kind byte, reqID uint64, sealed []byte) ([]byte, *Session, error) {
	if len(sealed) < Overhead {
		return nil, nil, fmt.Errorf("%w: short frame", ErrBadSeal)
	}
	sid := binary.BigEndian.Uint64(sealed[0:8])
	m.mu.Lock()
	s, ok := m.accept[sid]
	m.mu.Unlock()
	if !ok || s == nil { // nil = reserved by an in-flight Accept
		return nil, nil, ErrUnknownSession
	}
	payload, err := s.Open(kind, reqID, sealed)
	if err != nil {
		return nil, nil, err
	}
	return payload, s, nil
}

// replyTBS is the transcript the responder signs.
func replyTBS(initEph, nonce, respEph []byte, sid uint64) []byte {
	tbs := make([]byte, 0, len(labelHelloReply)+32+nonceLen+32+8)
	tbs = append(tbs, labelHelloReply...)
	tbs = append(tbs, initEph...)
	tbs = append(tbs, nonce...)
	tbs = append(tbs, respEph...)
	tbs = binary.BigEndian.AppendUint64(tbs, sid)
	return tbs
}

// deriveKey runs X25519 and HKDF-SHA256 to produce the session MAC key.
func deriveKey(priv *ecdh.PrivateKey, peerEph, nonce []byte, sid uint64) ([]byte, error) {
	peer, err := ecdh.X25519().NewPublicKey(peerEph)
	if err != nil {
		return nil, err
	}
	secret, err := priv.ECDH(peer)
	if err != nil {
		return nil, err
	}
	info := labelMACKey + string(binary.BigEndian.AppendUint64(nil, sid))
	return hkdf.Key(sha256.New, secret, nonce, info, keyLen)
}

func appendBlob(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func readBlobBytes(b []byte) (blob, rest []byte, err error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, nil, errors.New("bad length")
	}
	b = b[used:]
	if n > 1<<16 || uint64(len(b)) < n {
		return nil, nil, errors.New("truncated blob")
	}
	return b[:n], b[n:], nil
}

func readUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errors.New("truncated uint64")
	}
	return binary.BigEndian.Uint64(b[:8]), b[8:], nil
}

// peerKey is the context key carrying the authenticated peer identity
// from the transport into RPC handlers.
type peerKey struct{}

// WithPeer tags ctx with the authenticated remote credential of the
// session a request arrived on. A nil cred shadows any peer ctx already
// carries: the request proves no sender.
func WithPeer(ctx context.Context, cred *likir.Credential) context.Context {
	return context.WithValue(ctx, peerKey{}, cred)
}

// PeerFromContext returns the transport-authenticated remote identity,
// if the request arrived over an established session; ok is false when
// ctx carries no peer or a nil one.
func PeerFromContext(ctx context.Context) (*likir.Credential, bool) {
	cred, _ := ctx.Value(peerKey{}).(*likir.Credential)
	return cred, cred != nil
}
