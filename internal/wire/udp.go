package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dharma/internal/admission"
	"dharma/internal/obs"
	"dharma/internal/session"
	"dharma/internal/simnet"
)

// ErrBusy is Call's error when the remote chain refused the request
// busy (simnet.Server), the same sentinel on both transports. Busy
// peers are alive — back off and retry, do not evict them.
var ErrBusy = admission.ErrBusy

// ErrUnauthorized is the typed rejection of the identity layer: the
// sender (or the entries it tried to write) failed Likir verification,
// or the transport refused a request that arrived outside a session it
// holds, or a hello or sealed request it has no session layer for. It
// is NOT an eviction signal — the rejecting peer is healthy; the
// rejected party is the caller.
var ErrUnauthorized = errors.New("wire: unauthorized")

// UDP framing: 1-byte frame kind + 8-byte request id + payload. The
// transport never reads a payload: RPC messages are the handler's
// business. Secure frames wrap the same payloads in a session seal
// ([sid ‖ seq ‖ tag ‖ payload]); hello frames carry the session
// handshake. A transport with a session layer sends and serves secure
// requests only: the session is the proof of who sent a request, and
// the handler sees its peer on the request context. A transport
// without one sends and serves plain requests only. A reply's kind is
// its request's plus one. A refused frame answers a request the
// transport will not serve with a one-byte reason, and the exchange
// turns it into the error simnet returns for the same verdict. It is
// unsealed by necessity (a refusal may mean there is no session to
// seal under). Serving keeps only its session stage here: the serving
// chain, a simnet.Server as on simnet, admits and judges each request.
//
// Buffer ownership: write builds every datagram in a free-list buffer
// (Borrow) and recycles it once the socket has it. The read loop copies
// each payload it keeps into another: serve lends a request's copy to
// the handler and recycles it when HandleRPC returns, and recycles the
// handler's reply once written. A reply's copy goes to the exchange
// waiting on its id, which recycles what it rejects; release recycles
// what is still queued when the exchange ends, route what no exchange
// takes. The reply an exchange returns belongs to Call's caller.
const (
	frameRequest        = 0x01
	frameResponse       = 0x02
	frameHello          = 0x03
	frameHelloReply     = 0x04
	frameSecureRequest  = 0x05
	frameSecureResponse = 0x06
	frameRefused        = 0x07
	frameHeader         = 1 + 8
	maxDatagram         = 65507                                        // IPv4's largest UDP payload: the kernel sends no larger one
	maxPayload          = maxDatagram - frameHeader - session.Overhead // largest request or reply, sealed or not
)

// verdicts is the refusal table: a refused frame's one payload byte, its
// reason, indexes the verdict it is to the caller, the error simnet
// returns for it. The table runs both ways: refuse sends the reason of a
// verdict, and the exchange returns the verdict of the reason it reads.
// The reasons are wire format: append, never renumber.
var verdicts = [...]error{
	1: ErrBusy,            // admission gate full, or the handler shed the request
	2: errSessionStale,    // sealed under a session the receiver does not hold
	3: errNoSession,       // plain request to a transport with a session layer
	4: errNoSessionLayer,  // hello or sealed request to a transport without sessions
	5: simnet.ErrTooLarge, // the handler's reply cannot travel in one datagram
}

// DefaultUDPTimeout is how long a Call waits for a response before it
// reports simnet.ErrTimeout.
const DefaultUDPTimeout = 2 * time.Second

// UDPTransport carries overlay RPCs over real UDP datagrams. It
// implements the same Transport interface as the in-memory simnet, so
// the Kademlia node code is identical in simulation and deployment.
type UDPTransport struct {
	conn    *net.UDPConn
	srv     *simnet.Server
	timeout time.Duration

	sessions *session.Manager // the session layer (UDPOptions.Sessions); nil = open transport

	hsMu       sync.Mutex
	hsInflight map[string]chan struct{} // singleflight per dial addr

	nextID   atomic.Uint64
	mu       sync.Mutex
	pending  map[uint64]*slot // in-flight exchanges by request id
	idle     []*slot          // released slots for reuse, at most maxIdleSlots
	ctxMu    sync.Mutex
	peerCtxs map[*session.Session]context.Context // handler context per accepted session

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
	// inbound sealed requests are verified against the session cache,
	// and plain ones are refused (the caller sees ErrUnauthorized).
	Sessions *session.Manager
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
		conn:       conn,
		srv:        simnet.NewServer(h, o.Admission, maxPayload),
		timeout:    timeout,
		sessions:   o.Sessions,
		hsInflight: make(map[string]chan struct{}),
		pending:    make(map[uint64]*slot),
		peerCtxs:   make(map[*session.Session]context.Context),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		closed:     make(chan struct{}),
	}
	t.wg.Add(1)
	go t.readLoop()
	return t, nil
}

// frameMsg is a routed reply frame; its kind says if the payload is sealed.
type frameMsg struct {
	kind    byte
	payload []byte
}

// slot is an exchange's reply channel and timeout, reused (see acquire
// and release). A transport idles at most maxIdleSlots; its read loop
// starts its address table afresh past maxPeerNames sources.
type slot struct {
	ch    chan frameMsg
	timer *time.Timer
}

const maxIdleSlots, maxPeerNames = 256, 4096

// AdmissionStats reports this transport's admission accounting: how
// many inbound requests were admitted vs rejected busy.
func (t *UDPTransport) AdmissionStats() admission.Stats { return t.srv.AdmissionStats() }

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
		"Inbound frames rejected by the transport's session layer: failed handshakes and plain (session-less) requests.",
		t.authRej.Load)
	if t.sessions != nil {
		t.sessions.Instrument(reg)
	}
}

// AuthRejected is the number of inbound frames the session layer
// rejected: failed handshakes plus plain requests.
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
// A refusal comes back as its verdict's error (see verdicts). With
// sessions enabled the payload is sealed under the peer's session
// (handshaking on first contact). If the peer no longer recognises the
// session — it restarted or evicted us — it refuses the frame as stale;
// Call re-handshakes and retries once.
func (t *UDPTransport) Call(ctx context.Context, to simnet.Addr, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-t.closed:
		return nil, simnet.ErrClosed
	default:
	}
	dst, err := PeerAddr(to)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("%w: %d bytes", simnet.ErrTooLarge, len(payload))
	}

	if t.sessions == nil {
		return t.exchange(ctx, dst, frameRequest, nil, payload)
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

// PeerAddr parses to, unmapped so an IPv4 socket can send to it. Only a
// host name goes to the resolver; an empty host is this machine.
func PeerAddr(to simnet.Addr) (netip.AddrPort, error) {
	ap, err := netip.ParseAddrPort(string(to))
	if err != nil {
		ua, rerr := net.ResolveUDPAddr("udp", string(to))
		if rerr != nil {
			return ap, fmt.Errorf("wire: resolve %q: %w", to, rerr)
		}
		if ap = ua.AddrPort(); !ap.Addr().IsValid() {
			ap = netip.AddrPortFrom(netip.IPv4Unspecified(), ap.Port())
		}
	}
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}

// The session refusals. errSessionStale refuses a request sealed under
// a session the remote does not hold (anymore): re-handshake. Each
// wraps ErrUnauthorized, which is what it means to any other caller.
var (
	errSessionStale   = fmt.Errorf("%w: stale session", ErrUnauthorized)
	errNoSession      = fmt.Errorf("%w: authenticated session required", ErrUnauthorized)
	errNoSessionLayer = fmt.Errorf("%w: no session layer", ErrUnauthorized)
)

// exchangeSealed is exchange under the session with addr, dialed if need be.
func (t *UDPTransport) exchangeSealed(ctx context.Context, addr string, dst netip.AddrPort, payload []byte) ([]byte, error) {
	s, err := t.dialSession(ctx, addr, dst)
	if err != nil {
		return nil, err
	}
	return t.exchange(ctx, dst, frameSecureRequest, s, payload)
}

// dialSession returns the cached live session for addr or performs the
// two-message handshake. Concurrent dials to the same peer are
// collapsed into one handshake.
func (t *UDPTransport) dialSession(ctx context.Context, addr string, dst netip.AddrPort) (*session.Session, error) {
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
func (t *UDPTransport) handshake(ctx context.Context, addr string, dst netip.AddrPort) (*session.Session, error) {
	hs, err := t.sessions.NewHandshake(addr)
	if err != nil {
		return nil, err
	}
	reply, err := t.exchange(ctx, dst, frameHello, nil, hs.Payload())
	if err != nil {
		return nil, err
	}
	defer Recycle(reply) // Finish copies what it keeps
	return hs.Finish(reply)
}

// exchange is the one client round trip: it sends payload as a frame of
// kind under a fresh request id, sealed under s if set, and returns the
// first reply of kind+1 routed back under that id (opened under s). A
// refusal ends it with its verdict; any other frame is dropped. The
// wait ends early when ctx ends, the timeout fires or t closes.
func (t *UDPTransport) exchange(ctx context.Context, dst netip.AddrPort, kind byte, s *session.Session, payload []byte) ([]byte, error) {
	id := t.nextID.Add(1)
	sl := t.acquire(id)
	defer t.release(id, sl)
	if err := t.write(dst, kind, id, s, payload); err != nil {
		return nil, err
	}
	sl.timer.Reset(t.timeout)
	for {
		select {
		case fm := <-sl.ch:
			if fm.kind == frameRefused && len(fm.payload) == 1 && int(fm.payload[0]) < len(verdicts) && verdicts[fm.payload[0]] != nil {
				err := fmt.Errorf("wire: %s refused request: %w", dst, verdicts[fm.payload[0]])
				Recycle(fm.payload)
				return nil, err
			}
			if fm.kind == kind+1 {
				if s == nil {
					return fm.payload, nil
				}
				if inner, err := s.Open(fm.kind, id, fm.payload); err == nil {
					return inner, nil
				}
			}
			Recycle(fm.payload) // stray, or forged: the real reply may follow
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-sl.timer.C:
			return nil, simnet.ErrTimeout
		case <-t.closed:
			return nil, simnet.ErrClosed
		}
	}
}

// acquire registers request id on an idle slot, or on a new one.
func (t *UDPTransport) acquire(id uint64) *slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sl *slot
	if last := len(t.idle) - 1; last >= 0 {
		sl, t.idle = t.idle[last], t.idle[:last]
	} else {
		sl = &slot{ch: make(chan frameMsg, 4), timer: time.NewTimer(t.timeout)} // room for strays beside the reply
	}
	t.pending[id] = sl
	return sl
}

// release unregisters request id and idles its slot. route sends under
// mu, so once id is deleted nothing more reaches the slot, and its next
// exchange sees only frames sent under its own id.
func (t *UDPTransport) release(id uint64, sl *slot) {
	sl.timer.Stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.pending, id)
	for len(sl.ch) > 0 {
		Recycle((<-sl.ch).payload)
	}
	if len(t.idle) < maxIdleSlots {
		t.idle = append(t.idle, sl)
	}
}

// route hands a reply frame to the exchange waiting on id, or recycles
// its payload when none takes it; it reports whether one did.
func (t *UDPTransport) route(kind byte, id uint64, payload []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if sl, ok := t.pending[id]; ok {
		select {
		case sl.ch <- frameMsg{kind: kind, payload: payload}:
			return true
		default: // channel full; the waiter has enough to chew on
		}
	}
	Recycle(payload)
	return false
}

// write sends one datagram: kind, request id and payload, sealed under
// s when s is set. The frame is a free-list buffer, recycled once the
// socket has it.
func (t *UDPTransport) write(to netip.AddrPort, kind byte, id uint64, s *session.Session, payload []byte) error {
	frame := binary.BigEndian.AppendUint64(append(Borrow(frameHeader+session.Overhead+len(payload)), kind), id)
	if s != nil {
		frame = s.Seal(frame, kind, id, payload)
	} else {
		frame = append(frame, payload...)
	}
	n, err := t.conn.WriteToUDPAddrPort(frame, to)
	Recycle(frame)
	if err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	if m := t.metrics.Load(); m != nil {
		m.datagramsOut.Inc()
		m.bytesOut.Add(int64(n))
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
	// names: each source's host:port, unmapped, as UDPAddr.String() gives
	// it: the from a handler files the sender at, so it must dial back.
	names := make(map[netip.AddrPort]string)
	for {
		n, from, err := t.conn.ReadFromUDPAddrPort(buf)
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

		switch kind {
		case frameRequest, frameSecureRequest, frameHello:
			addr, ok := names[from]
			if !ok {
				if len(names) >= maxPeerNames {
					clear(names)
				}
				addr = netip.AddrPortFrom(from.Addr().Unmap(), from.Port()).String()
				names[from] = addr
			}
			// Admission before the goroutine spawn, hellos included: past
			// QueueDepth the read loop refuses busy inline, so neither
			// handlers nor handshake verifications pile up unbounded.
			if err := t.srv.Admit(simnet.Addr(addr)); err != nil {
				t.refuse(from, id, err)
				continue
			}
			t.wg.Add(1)
			go t.serve(kind, from, addr, id, append(Borrow(n-frameHeader), buf[frameHeader:n]...))
		case frameResponse, frameHelloReply, frameSecureResponse, frameRefused:
			t.route(kind, id, append(Borrow(n-frameHeader), buf[frameHeader:n]...))
		}
	}
}

// serve runs one request admitted from addr: its session stage (a
// hello's handshake, a sealed request's opening, the session refusals),
// then the chain for a request that passes it. Either stage's verdict
// goes back through refuse. serve recycles the request once served and
// the reply once written.
func (t *UDPTransport) serve(kind byte, from netip.AddrPort, addr string, id uint64, payload []byte) {
	defer t.wg.Done()
	defer Recycle(payload) // the buffer read, even once payload is its opened part
	ctx, s, resp, err := t.baseCtx, (*session.Session)(nil), []byte(nil), error(nil)
	switch {
	case kind != frameRequest && t.sessions == nil:
		err = errNoSessionLayer // say so, or a secured caller times out on us
	case kind == frameHello:
		if resp, err = t.sessions.Accept(payload); err != nil {
			t.authRej.Add(1) // the initiator failed authentication: silence
		}
	case kind == frameSecureRequest:
		if payload, s, err = t.sessions.OpenRequest(frameSecureRequest, id, payload); err == nil {
			ctx = t.peerContext(s)
		} else if errors.Is(err, session.ErrUnknownSession) {
			err = errSessionStale // we restarted or evicted the caller: it re-handshakes
		} // a bad MAC or a replay is silence, as for any forged datagram
	case t.sessions != nil:
		t.authRej.Add(1)
		err = errNoSession // a plain request proves no sender: only a session does
	}
	if err != nil || kind == frameHello {
		t.srv.Release()
	} else {
		resp, err = t.srv.Serve(ctx, simnet.Addr(addr), payload)
	}
	if err != nil {
		t.refuse(from, id, err)
		return
	}
	t.write(from, kind+1, id, s, resp) //nolint:errcheck // best-effort reply
	Recycle(resp)
}

// peerContext returns the handler context of requests sealed under s:
// the base context carrying s's peer, built once per accepted session.
func (t *UDPTransport) peerContext(s *session.Session) context.Context {
	t.ctxMu.Lock()
	defer t.ctxMu.Unlock()
	if ctx, ok := t.peerCtxs[s]; ok {
		return ctx
	}
	if len(t.peerCtxs) >= session.DefaultMaxSessions {
		clear(t.peerCtxs)
	}
	t.peerCtxs[s] = session.WithPeer(t.baseCtx, s.Peer())
	return t.peerCtxs[s]
}

// refuse answers request id with the refused frame whose reason
// carries verdict; a verdict no reason carries is silence, as over any
// lossy network: the caller times out.
func (t *UDPTransport) refuse(to netip.AddrPort, id uint64, verdict error) {
	for r, v := range verdicts {
		if v != nil && errors.Is(verdict, v) {
			t.write(to, frameRefused, id, nil, []byte{byte(r)}) //nolint:errcheck // best-effort reply
			return
		}
	}
}

var _ simnet.Transport = (*UDPTransport)(nil)
