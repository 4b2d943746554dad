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

// ErrBusy is returned by Call when the remote peer refused the request
// at admission, or its handler refused it with an error wrapping
// ErrBusy. It is the same sentinel across transports: errors.Is(err,
// wire.ErrBusy) works whether the RPC travelled over simnet or UDP. Busy
// peers are alive — back off and retry, do not evict them from routing
// state.
var ErrBusy = admission.ErrBusy

// ErrUnauthorized is the typed rejection of the identity layer: the
// sender (or the entries it tried to write) failed Likir verification,
// or the transport refused a request that arrived outside a session it
// holds. It is NOT an eviction signal — the rejecting peer is healthy;
// the rejected party is the caller.
var ErrUnauthorized = errors.New("wire: unauthorized")

// UDP framing: 1-byte frame kind + 8-byte request id + payload. The
// transport never reads a payload: RPC messages are the handler's
// business. Secure frames wrap the same payloads in a session seal
// ([sid ‖ seq ‖ tag ‖ payload]); hello frames carry the session
// handshake. A refused frame answers a request the transport will not
// serve with a one-byte reason, and the exchange turns it into the
// error simnet returns for the same verdict. It is unsealed by
// necessity (a refusal may mean there is no session to seal under).
const (
	frameRequest        = 0x01
	frameResponse       = 0x02
	frameHello          = 0x03
	frameHelloReply     = 0x04
	frameSecureRequest  = 0x05
	frameSecureResponse = 0x06
	frameRefused        = 0x07
	frameHeader         = 1 + 8
	maxDatagram         = 64 << 10
)

// Refusal reasons, the one payload byte of a refused frame, and the
// verdict each is to the caller: the error simnet returns for it.
const (
	refusedBusy         = 0x01 // admission gate full, or the handler shed the request
	refusedStaleSession = 0x02 // sealed under a session the receiver does not hold
	refusedNoSession    = 0x03 // plain request to a transport that requires a session
)

var verdicts = map[byte]error{refusedBusy: ErrBusy, refusedStaleSession: errSessionStale, refusedNoSession: ErrUnauthorized}

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
	// RequireAuth (with Sessions set) refuses plain inbound requests
	// (the caller sees ErrUnauthorized) instead of serving them. Leave
	// false only during a rolling upgrade: a plain request carries no
	// proof that its sender holds the credential it presents.
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
// and byte counters for both directions, the session layer's
// rejections and the session manager's instruments. The admission
// gate's accounting is the node's to register (AdmissionStats). Safe
// to call while the transport is serving; a nil reg is a no-op.
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
// A refusal comes back as its error: ErrBusy, or ErrUnauthorized for a
// plain request to a peer that requires a session. With sessions
// enabled the payload is sealed under the peer's session (handshaking
// on first contact). If the peer no longer recognises the session — it
// restarted or evicted us — it refuses the frame as stale; Call
// re-handshakes and retries once.
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
		// Open transport: the first routed frame is the answer.
		var resp []byte
		err := t.exchange(ctx, dst,
			func(id uint64) []byte { return append(header(frameRequest, id, len(payload)), payload...) },
			func(_ uint64, fm frameMsg) (bool, error) {
				resp = fm.payload
				return true, nil
			})
		return resp, err
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

// errSessionStale is the internal signal that the remote refused a
// sealed request as stale: it does not hold our session (anymore) and
// we should re-handshake. It wraps ErrUnauthorized, which is what it
// means to a caller that cannot re-handshake.
var errSessionStale = fmt.Errorf("%w: stale session", ErrUnauthorized)

// exchangeSealed seals payload under the session with addr (dialing one
// if needed) and verifies the sealed response.
func (t *UDPTransport) exchangeSealed(ctx context.Context, addr string, dst *net.UDPAddr, payload []byte) ([]byte, error) {
	s, err := t.dialSession(ctx, addr, dst)
	if err != nil {
		return nil, err
	}
	var resp []byte
	err = t.exchange(ctx, dst,
		func(id uint64) []byte {
			return s.Seal(header(frameSecureRequest, id, session.Overhead+len(payload)), frameSecureRequest, id, payload)
		},
		// Responses may race with forged frames; keep reading until one
		// authenticates. A plain response to a sealed request is ignored.
		func(id uint64, fm frameMsg) (bool, error) {
			if fm.kind != frameSecureResponse {
				return false, nil
			}
			inner, err := s.Open(frameSecureResponse, id, fm.payload)
			if err != nil {
				return false, nil // forged or corrupted; the real answer may follow
			}
			resp = inner
			return true, nil
		})
	return resp, err
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
	hello := hs.Payload()
	var s *session.Session
	err = t.exchange(ctx, dst,
		func(id uint64) []byte { return append(header(frameHello, id, len(hello)), hello...) },
		func(_ uint64, fm frameMsg) (bool, error) {
			if fm.kind != frameHelloReply {
				return false, nil // stray frame under a recycled id; keep waiting
			}
			var ferr error
			s, ferr = hs.Finish(fm.payload)
			return true, ferr
		})
	return s, err
}

// exchange is the one client round trip: it registers a fresh request
// id, sends the frame build returns for it, and hands every frame routed
// back under that id to accept until accept reports done (with the
// exchange's error, if any). A refused frame ends the exchange with its
// verdict before accept sees it. The wait ends early when ctx ends, the
// transport's own timeout fires or the transport closes; the pending
// entry is deleted on the way out, so a late response is dropped.
func (t *UDPTransport) exchange(ctx context.Context, dst *net.UDPAddr,
	build func(id uint64) []byte, accept func(id uint64, fm frameMsg) (bool, error)) error {
	id := t.nextID.Add(1)
	ch := make(chan frameMsg, 4)
	t.mu.Lock()
	t.pending[id] = ch
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.pending, id)
		t.mu.Unlock()
	}()

	if err := t.send(build(id), dst); err != nil {
		return err
	}
	timer := time.NewTimer(t.timeout)
	defer timer.Stop()
	for {
		select {
		case fm := <-ch:
			if fm.kind == frameRefused {
				if len(fm.payload) == 1 && verdicts[fm.payload[0]] != nil {
					return fmt.Errorf("wire: %s refused request: %w", dst, verdicts[fm.payload[0]])
				}
				continue // unknown reason: as malformed as any stray frame
			}
			if done, err := accept(id, fm); done {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			return simnet.ErrTimeout
		case <-t.closed:
			return simnet.ErrClosed
		}
	}
}

// header starts a datagram of the given frame kind and request id, with
// room for n more bytes; every client frame and every reply is built on
// one.
func header(kind byte, id uint64, n int) []byte {
	frame := make([]byte, frameHeader, frameHeader+n)
	frame[0] = kind
	binary.BigEndian.PutUint64(frame[1:9], id)
	return frame
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
			// transport refuses busy inline instead of growing the handler
			// pool — the read loop never blocks and never queues unboundedly.
			// Hellos pass the same gate so a handshake flood cannot spawn
			// unbounded signature verifications.
			addr := from.String()
			if t.ctrl.Enter(addr) != nil {
				t.refuse(from, id, refusedBusy)
				continue
			}
			t.wg.Add(1)
			go t.serve(kind, from, addr, id, payload)
		case frameResponse, frameHelloReply, frameSecureResponse, frameRefused:
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

// serve runs one request admitted from addr and recycles the reply.
func (t *UDPTransport) serve(kind byte, from *net.UDPAddr, addr string, id uint64, payload []byte) {
	defer t.wg.Done()
	defer t.ctrl.Leave()
	ctx, s := t.baseCtx, (*session.Session)(nil)
	switch {
	case kind != frameRequest && t.sessions == nil:
		return // no session layer: hellos and sealed frames are noise
	case kind == frameHello:
		reply, err := t.sessions.Accept(payload)
		if err != nil {
			t.authRej.Add(1)
			return // reject silently: the initiator failed authentication
		}
		t.reply(frameHelloReply, from, id, reply)
		return
	case kind == frameSecureRequest:
		var err error
		if payload, s, err = t.sessions.OpenRequest(frameSecureRequest, id, payload); err != nil {
			if errors.Is(err, session.ErrUnknownSession) {
				// We restarted or evicted the caller: it re-handshakes.
				t.refuse(from, id, refusedStaleSession)
			}
			return // bad MAC / replay: silence, as for any forged datagram
		}
		ctx = session.WithPeer(ctx, s.Peer())
	case t.requireAuth:
		t.authRej.Add(1)
		t.refuse(from, id, refusedNoSession)
		return
	}
	resp, err := t.handler.HandleRPC(ctx, simnet.Addr(addr), payload)
	if err != nil {
		if errors.Is(err, ErrBusy) {
			t.refuse(from, id, refusedBusy) // the handler shed the request
		}
		return // any other error is silence, as over real UDP: the caller times out
	}
	if s != nil {
		frame := header(frameSecureResponse, id, session.Overhead+len(resp))
		t.send(s.Seal(frame, frameSecureResponse, id, resp), from) //nolint:errcheck // best-effort reply
	} else {
		t.reply(frameResponse, from, id, resp)
	}
	Recycle(resp)
}

// reply sends one plain frame, best effort.
func (t *UDPTransport) reply(kind byte, from *net.UDPAddr, id uint64, resp []byte) {
	t.send(append(header(kind, id, len(resp)), resp...), from) //nolint:errcheck // best-effort reply
}

// refuse answers request id with a refused frame carrying reason.
func (t *UDPTransport) refuse(from *net.UDPAddr, id uint64, reason byte) {
	t.reply(frameRefused, from, id, []byte{reason})
}

var _ simnet.Transport = (*UDPTransport)(nil)
