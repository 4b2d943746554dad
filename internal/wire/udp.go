package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dharma/internal/admission"
	"dharma/internal/obs"
	"dharma/internal/session"
	"dharma/internal/simnet"
)

// ErrBusy is returned by Call when the remote peer answered with a
// KindBusy admission rejection (and by a local admission gate). It is
// the same sentinel across transports: errors.Is(err, wire.ErrBusy)
// works whether the RPC travelled over simnet or UDP. Busy peers are
// alive — back off and retry, do not evict them from routing state.
var ErrBusy = admission.ErrBusy

// ErrUnauthorized is the typed rejection of the identity layer: the
// sender (or the entries it tried to write) failed Likir verification.
// It is NOT an eviction signal — the rejecting peer is healthy; the
// rejected party is the caller.
var ErrUnauthorized = errors.New("wire: unauthorized")

// UDP framing: 1-byte frame kind + 8-byte request id + payload.
// Secure frames wrap the same payloads in a session seal
// ([sid ‖ seq ‖ tag ‖ payload]); hello frames carry the session
// handshake and exist only at the transport layer.
const (
	frameRequest        = 0x01
	frameResponse       = 0x02
	frameHello          = 0x03
	frameHelloReply     = 0x04
	frameSecureRequest  = 0x05
	frameSecureResponse = 0x06
	frameHeader         = 1 + 8
	maxDatagram         = 64 << 10
)

// DefaultUDPTimeout is how long a Call waits for a response before it
// reports simnet.ErrTimeout.
const DefaultUDPTimeout = 2 * time.Second

// UDPTransport carries overlay RPCs over real UDP datagrams. It
// implements the same Transport interface as the in-memory simnet, so
// the Kademlia node code is identical in simulation and deployment.
type UDPTransport struct {
	conn    *net.UDPConn
	handler simnet.Handler
	timeout time.Duration
	ctrl    *admission.Controller

	// sessions enables the authenticated-session layer: outbound calls
	// are sealed under a per-peer session (handshaking on first use) and
	// inbound sealed requests are verified and served with the peer's
	// identity on the handler context. nil = open transport.
	sessions    *session.Manager
	requireAuth bool // reject plain (unsealed) inbound requests

	hsMu       sync.Mutex
	hsInflight map[string]chan struct{} // singleflight per dial addr

	nextID  atomic.Uint64
	mu      sync.Mutex
	pending map[uint64]chan frameMsg

	authRej atomic.Int64 // inbound requests rejected unauthenticated

	// metrics is set once by Instrument; the read loop races it, hence
	// the atomic pointer. nil = un-instrumented (the default).
	metrics atomic.Pointer[udpMetrics]

	baseCtx    context.Context // handler context; ends when Close begins
	baseCancel context.CancelFunc
	closeOnce  sync.Once
	closed     chan struct{}
	wg         sync.WaitGroup
}

// UDPOptions configures a UDP transport; every zero field is its default.
type UDPOptions struct {
	// Timeout is the per-call response wait; 0 = DefaultUDPTimeout.
	Timeout time.Duration
	// Admission configures the inbound admission gate.
	Admission admission.Config
	// Sessions enables the authenticated-session layer. Outbound calls
	// handshake on first contact with a peer and seal every datagram;
	// inbound sealed requests are verified against the session cache.
	Sessions *session.Manager
	// RequireAuth (with Sessions set) rejects plain inbound requests
	// with KindUnauthorized instead of serving them. Leave false during
	// a rolling upgrade, set true once the fleet speaks sessions.
	RequireAuth bool
}

// ListenUDP binds a UDP socket on bind (e.g. "127.0.0.1:0") and serves
// inbound RPCs with h.
func ListenUDP(bind string, h simnet.Handler, o UDPOptions) (*UDPTransport, error) {
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	timeout := o.Timeout
	if timeout <= 0 {
		timeout = DefaultUDPTimeout
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	t := &UDPTransport{
		conn:        conn,
		handler:     h,
		timeout:     timeout,
		ctrl:        admission.New(o.Admission),
		sessions:    o.Sessions,
		requireAuth: o.RequireAuth && o.Sessions != nil,
		hsInflight:  make(map[string]chan struct{}),
		pending:     make(map[uint64]chan frameMsg),
		baseCtx:     baseCtx,
		baseCancel:  baseCancel,
		closed:      make(chan struct{}),
	}
	t.wg.Add(1)
	go t.readLoop()
	return t, nil
}

// frameMsg is one routed response frame: the frame kind decides whether
// the payload is sealed.
type frameMsg struct {
	kind    byte
	payload []byte
}

// AdmissionStats reports this transport's admission accounting: how
// many inbound requests were admitted vs rejected busy.
func (t *UDPTransport) AdmissionStats() admission.Stats { return t.ctrl.Stats() }

// udpMetrics holds the transport's datagram/byte instruments. All
// fields are nil-safe obs counters, so the record sites stay branchless
// once the pointer test passes.
type udpMetrics struct {
	datagramsIn  *obs.Counter
	datagramsOut *obs.Counter
	bytesIn      *obs.Counter
	bytesOut     *obs.Counter
}

// Instrument registers the transport's instruments on reg: datagram
// and byte counters for both directions, plus the admission gate's
// accounting as scrape-time funcs. Safe to call while the transport is
// serving; a nil reg is a no-op.
func (t *UDPTransport) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.metrics.Store(&udpMetrics{
		datagramsIn: reg.Counter("dharma_udp_datagrams_read_total",
			"UDP datagrams read off the socket (requests and responses)."),
		datagramsOut: reg.Counter("dharma_udp_datagrams_written_total",
			"UDP datagrams written to the socket (requests and replies)."),
		bytesIn: reg.Counter("dharma_udp_read_bytes_total",
			"Bytes read off the UDP socket, framing included."),
		bytesOut: reg.Counter("dharma_udp_written_bytes_total",
			"Bytes written to the UDP socket, framing included."),
	})
	reg.CounterFunc("dharma_admission_admitted_total",
		"Inbound requests that passed the admission gate.",
		func() int64 { return t.ctrl.Stats().Admitted })
	reg.CounterFunc("dharma_admission_rejected_queue_total",
		"Inbound requests rejected by the full work queue.",
		func() int64 { return t.ctrl.Stats().RejectedQueue })
	reg.CounterFunc("dharma_admission_rejected_rate_total",
		"Inbound requests rejected by a peer's exhausted token bucket.",
		func() int64 { return t.ctrl.Stats().RejectedRate })
	reg.GaugeFunc("dharma_admission_in_flight",
		"Admitted requests currently in their handler.",
		func() int64 { return t.ctrl.Stats().InFlight })
	reg.CounterFunc("dharma_udp_unauthenticated_rejected_total",
		"Inbound frames rejected by the transport's session layer (failed handshakes and plain requests under require-auth).",
		t.authRej.Load)
	if t.sessions != nil {
		t.sessions.Instrument(reg)
	}
}

// AuthRejected is the number of inbound frames the session layer
// rejected: failed handshakes plus plain requests under require-auth.
func (t *UDPTransport) AuthRejected() int64 { return t.authRej.Load() }

// Sessions exposes the transport's session manager (nil when the
// transport runs open).
func (t *UDPTransport) Sessions() *session.Manager { return t.sessions }

// Addr implements simnet.Transport; the address is the bound UDP
// endpoint, so it can be handed to peers as a contact address.
func (t *UDPTransport) Addr() simnet.Addr {
	return simnet.Addr(t.conn.LocalAddr().String())
}

// Call implements simnet.Transport. The wait for the response is
// aborted as soon as ctx ends — a caller with a 100ms deadline is not
// held hostage by the transport's own retry timeout.
//
// With sessions enabled the payload is sealed under the peer's session
// (handshaking on first contact). If the peer no longer recognises the
// session — it restarted or evicted us — it answers with a plain
// UNAUTHORIZED control frame; Call re-handshakes and retries once.
func (t *UDPTransport) Call(ctx context.Context, to simnet.Addr, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-t.closed:
		return nil, simnet.ErrClosed
	default:
	}
	dst, err := net.ResolveUDPAddr("udp", string(to))
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %q: %w", to, err)
	}
	if len(payload)+frameHeader+session.Overhead > maxDatagram {
		return nil, fmt.Errorf("%w: %d bytes", simnet.ErrTooLarge, len(payload))
	}

	if t.sessions == nil {
		return t.exchangePlain(ctx, dst, payload)
	}
	resp, err := t.exchangeSealed(ctx, string(to), dst, payload)
	if errors.Is(err, errSessionStale) {
		// The peer forgot our session (restart, eviction). Handshake
		// afresh and retry once; a second stale answer is a real error.
		t.sessions.DropPeer(string(to))
		resp, err = t.exchangeSealed(ctx, string(to), dst, payload)
		if errors.Is(err, errSessionStale) {
			err = fmt.Errorf("%w: peer rejects session after re-handshake", ErrUnauthorized)
		}
	}
	return resp, err
}

// errSessionStale is the internal signal that the remote answered a
// sealed request with a plain UNAUTHORIZED control frame: it does not
// hold our session (anymore) and we should re-handshake.
var errSessionStale = errors.New("wire: stale session")

// exchangePlain is the open-transport request/response exchange.
func (t *UDPTransport) exchangePlain(ctx context.Context, dst *net.UDPAddr, payload []byte) ([]byte, error) {
	id, ch, cleanup := t.newPending()
	defer cleanup()

	frame := make([]byte, frameHeader+len(payload))
	frame[0] = frameRequest
	binary.BigEndian.PutUint64(frame[1:9], id)
	copy(frame[frameHeader:], payload)
	if err := t.send(frame, dst); err != nil {
		return nil, err
	}
	fm, err := t.await(ctx, ch)
	if err != nil {
		return nil, err
	}
	return fm.payload, nil
}

// exchangeSealed seals payload under the session with addr (dialing one
// if needed) and verifies the sealed response.
func (t *UDPTransport) exchangeSealed(ctx context.Context, addr string, dst *net.UDPAddr, payload []byte) ([]byte, error) {
	s, err := t.dialSession(ctx, addr, dst)
	if err != nil {
		return nil, err
	}
	id, ch, cleanup := t.newPending()
	defer cleanup()

	frame := make([]byte, frameHeader, frameHeader+session.Overhead+len(payload))
	frame[0] = frameSecureRequest
	binary.BigEndian.PutUint64(frame[1:9], id)
	frame = s.Seal(frame, frameSecureRequest, id, payload)
	if err := t.send(frame, dst); err != nil {
		return nil, err
	}

	// Responses may race with forged plain frames; keep reading until a
	// frame authenticates (or is an acceptable control answer).
	timer := time.NewTimer(t.timeout)
	defer timer.Stop()
	for {
		fm, err := t.awaitTimer(ctx, ch, timer)
		if err != nil {
			return nil, err
		}
		switch fm.kind {
		case frameSecureResponse:
			inner, err := s.Open(frameSecureResponse, id, fm.payload)
			if err != nil {
				continue // forged or corrupted; the real answer may follow
			}
			return inner, nil
		case frameResponse:
			// A plain response to a sealed request is only meaningful as a
			// transport control answer: BUSY from the admission gate (which
			// runs before session lookup) or UNAUTHORIZED from a peer that
			// does not hold our session. Anything else is unauthenticated
			// and ignored.
			switch peekKind(fm.payload) {
			case KindBusy:
				return fm.payload, nil
			case KindUnauthorized:
				return nil, errSessionStale
			}
		}
	}
}

// peekKind reads the message kind of an encoded frame without a full
// decode (layout: version byte, then kind byte).
func peekKind(payload []byte) Kind {
	if len(payload) < 2 {
		return 0
	}
	return Kind(payload[1])
}

// dialSession returns the cached live session for addr or performs the
// two-message handshake. Concurrent dials to the same peer are
// collapsed into one handshake.
func (t *UDPTransport) dialSession(ctx context.Context, addr string, dst *net.UDPAddr) (*session.Session, error) {
	for {
		if s, ok := t.sessions.Peer(addr); ok {
			return s, nil
		}
		// Singleflight: the first caller handshakes, the rest wait.
		t.hsMu.Lock()
		wait, inflight := t.hsInflight[addr]
		if !inflight {
			wait = make(chan struct{})
			t.hsInflight[addr] = wait
		}
		t.hsMu.Unlock()
		if inflight {
			select {
			case <-wait:
				continue // re-check the cache; handshake may have failed
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-t.closed:
				return nil, simnet.ErrClosed
			}
		}
		s, err := t.handshake(ctx, addr, dst)
		t.hsMu.Lock()
		delete(t.hsInflight, addr)
		t.hsMu.Unlock()
		close(wait)
		return s, err
	}
}

// handshake runs one HELLO / HELLO_REPLY exchange with the peer.
func (t *UDPTransport) handshake(ctx context.Context, addr string, dst *net.UDPAddr) (*session.Session, error) {
	hs, err := t.sessions.NewHandshake(addr)
	if err != nil {
		return nil, err
	}
	id, ch, cleanup := t.newPending()
	defer cleanup()

	hello := hs.Payload()
	frame := make([]byte, frameHeader+len(hello))
	frame[0] = frameHello
	binary.BigEndian.PutUint64(frame[1:9], id)
	copy(frame[frameHeader:], hello)
	if err := t.send(frame, dst); err != nil {
		return nil, err
	}
	timer := time.NewTimer(t.timeout)
	defer timer.Stop()
	for {
		fm, err := t.awaitTimer(ctx, ch, timer)
		if err != nil {
			return nil, err
		}
		if fm.kind != frameHelloReply {
			continue // stray frame under a recycled id; keep waiting
		}
		return hs.Finish(fm.payload)
	}
}

// newPending registers a response channel under a fresh request id.
func (t *UDPTransport) newPending() (uint64, chan frameMsg, func()) {
	id := t.nextID.Add(1)
	ch := make(chan frameMsg, 4)
	t.mu.Lock()
	t.pending[id] = ch
	t.mu.Unlock()
	return id, ch, func() {
		t.mu.Lock()
		delete(t.pending, id)
		t.mu.Unlock()
	}
}

// send writes one framed datagram and records transport metrics.
func (t *UDPTransport) send(frame []byte, dst *net.UDPAddr) error {
	if _, err := t.conn.WriteToUDP(frame, dst); err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	if m := t.metrics.Load(); m != nil {
		m.datagramsOut.Inc()
		m.bytesOut.Add(int64(len(frame)))
	}
	return nil
}

// await waits for one routed frame under the transport's own timeout.
func (t *UDPTransport) await(ctx context.Context, ch chan frameMsg) (frameMsg, error) {
	timer := time.NewTimer(t.timeout)
	defer timer.Stop()
	return t.awaitTimer(ctx, ch, timer)
}

func (t *UDPTransport) awaitTimer(ctx context.Context, ch chan frameMsg, timer *time.Timer) (frameMsg, error) {
	select {
	case fm := <-ch:
		return fm, nil
	case <-ctx.Done():
		// Abort the in-flight waiter: the pending entry is deleted by the
		// caller's cleanup, so a late response is dropped on the floor.
		return frameMsg{}, ctx.Err()
	case <-timer.C:
		return frameMsg{}, simnet.ErrTimeout
	case <-t.closed:
		return frameMsg{}, simnet.ErrClosed
	}
}

// Close implements simnet.Transport. It stops the read loop, cancels
// the handler context so ctx-aware handlers unstick, and waits for
// in-flight handlers to finish.
func (t *UDPTransport) Close() error {
	var err error
	t.closeOnce.Do(func() {
		close(t.closed)
		t.baseCancel()
		err = t.conn.Close()
		t.wg.Wait()
	})
	return err
}

func (t *UDPTransport) readLoop() {
	defer t.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient read error: drop the datagram
		}
		if m := t.metrics.Load(); m != nil {
			m.datagramsIn.Inc()
			m.bytesIn.Add(int64(n))
		}
		if n < frameHeader {
			continue
		}
		kind := buf[0]
		id := binary.BigEndian.Uint64(buf[1:9])
		payload := append([]byte(nil), buf[frameHeader:n]...)

		switch kind {
		case frameRequest, frameSecureRequest, frameHello:
			// Admission before the goroutine spawn: past QueueDepth the
			// transport answers busy inline instead of growing the handler
			// pool — the read loop never blocks and never queues unboundedly.
			// Hellos pass the same gate so a handshake flood cannot spawn
			// unbounded signature verifications.
			release, aerr := t.ctrl.Admit(from.String())
			if aerr != nil {
				t.reply(frameResponse, from, id, busyResponse())
				continue
			}
			t.wg.Add(1)
			go t.serve(kind, from, id, payload, release)
		case frameResponse, frameHelloReply, frameSecureResponse:
			t.mu.Lock()
			ch, ok := t.pending[id]
			t.mu.Unlock()
			if ok {
				select {
				case ch <- frameMsg{kind: kind, payload: payload}:
				default: // channel full; the waiter has enough to chew on
				}
			}
		}
	}
}

func (t *UDPTransport) serve(kind byte, from *net.UDPAddr, id uint64, payload []byte, release func()) {
	defer t.wg.Done()
	defer release()
	switch kind {
	case frameHello:
		if t.sessions == nil {
			return // no session layer: hellos are noise
		}
		reply, err := t.sessions.Accept(payload)
		if err != nil {
			t.authRej.Add(1)
			return // reject silently: the initiator failed authentication
		}
		t.reply(frameHelloReply, from, id, reply)
		return
	case frameSecureRequest:
		if t.sessions == nil {
			return
		}
		inner, s, err := t.sessions.OpenRequest(frameSecureRequest, id, payload)
		if err != nil {
			if errors.Is(err, session.ErrUnknownSession) {
				// Tell the caller to re-handshake: we restarted or evicted
				// it. This control answer is unsealed by necessity (no
				// session to seal under); the dial side treats it only as a
				// re-handshake hint, never as an RPC result.
				t.reply(frameResponse, from, id, staleSessionResponse())
			}
			return // bad MAC / replay: silence, as for any forged datagram
		}
		ctx := session.WithPeer(t.baseCtx, s.Peer())
		resp, err := t.handler.HandleRPC(ctx, simnet.Addr(from.String()), inner)
		if err != nil {
			return
		}
		sealed := make([]byte, 0, session.Overhead+len(resp))
		t.reply(frameSecureResponse, from, id, s.Seal(sealed, frameSecureResponse, id, resp))
		return
	}
	// Plain request.
	if t.requireAuth {
		t.authRej.Add(1)
		t.reply(frameResponse, from, id, unauthorizedResponse())
		return
	}
	resp, err := t.handler.HandleRPC(t.baseCtx, simnet.Addr(from.String()), payload)
	if err != nil {
		return // silence, as over real UDP: the caller times out
	}
	t.reply(frameResponse, from, id, resp)
}

func (t *UDPTransport) reply(kind byte, from *net.UDPAddr, id uint64, resp []byte) {
	frame := make([]byte, frameHeader+len(resp))
	frame[0] = kind
	binary.BigEndian.PutUint64(frame[1:9], id)
	copy(frame[frameHeader:], resp)
	t.conn.WriteToUDP(frame, from) //nolint:errcheck // best-effort reply
	if m := t.metrics.Load(); m != nil {
		m.datagramsOut.Inc()
		m.bytesOut.Add(int64(len(frame)))
	}
}

// Prebuilt control responses: encoding is cheap but an allocation per
// rejection is not free under a storm.
var (
	busyFrame         = Encode(&Message{Kind: KindBusy})
	staleSessionFrame = Encode(&Message{Kind: KindUnauthorized, Err: "unknown session; re-handshake"})
	unauthFrame       = Encode(&Message{Kind: KindUnauthorized, Err: "authenticated session required"})
)

func busyResponse() []byte         { return busyFrame }
func staleSessionResponse() []byte { return staleSessionFrame }
func unauthorizedResponse() []byte { return unauthFrame }

var _ simnet.Transport = (*UDPTransport)(nil)
