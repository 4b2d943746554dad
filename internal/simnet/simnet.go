// Package simnet provides an in-memory message-passing network used to
// run overlay protocols deterministically on one machine.
//
// The unit of communication is a blocking RPC carrying an opaque byte
// payload, mirroring a UDP request/response exchange. The network can
// inject packet loss, enforce a maximum payload size (the paper notes
// that overlay messages travel in UDP packets with a limited payload,
// which motivates DHARMA's index-side filtering), take nodes down, and
// partition pairs of endpoints. All randomness is seeded, so failures
// are reproducible.
//
// The network adds no latency: an exchange costs the handler's work,
// which may still wait, as a durable member's commit waits on its log.
// Under an uncancellable ctx (ctx.Done() == nil) Call runs the handler
// on the caller's goroutine, otherwise on a goroutine of its own.
//
// Payloads change hands, they are not shared: a handler's reply belongs
// to the transport and a Call's result to its caller, and neither side
// keeps a reference after handing the bytes on, so the receiver may
// recycle them (the kademlia decoder copies blobs and interns strings).
//
// One RWMutex guards the endpoint, down and partition maps; Call holds
// its read side once per exchange, so concurrent callers share it and
// only topology changes (Attach, Detach, SetDown, Partition) write.
// BenchmarkCallContention measures it under 1–64 callers.
//
// The network is the sender, as a UDP session is: an endpoint whose
// handler has a Likir identity runs every handler it calls under
// session.WithPeer with that identity's credential, and any other
// endpoint runs it with no peer, so a handler reads who called it the
// same way on both transports.
//
// A Server is the serving chain both transports build around their
// handler: the one place where a served request is admitted and its
// handler's outcome judged (busy, too large, or silence).
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"dharma/internal/admission"
	"dharma/internal/likir"
	"dharma/internal/session"
)

// Addr identifies an endpoint on the network.
type Addr string

// Handler processes one inbound RPC and returns the response payload.
// Handlers are invoked concurrently and must be safe for concurrent use.
// from is where the request came from (the caller's endpoint, or the
// UDP source): the address a routing table files the caller at. ctx is
// the server-side context for this request: it ends when the caller
// gives up or the serving transport shuts down, so long-running
// handlers (storage commits, anything that blocks) should watch it and
// stop wasting work that nobody will read.
//
// payload is lent for the call only and is never returned; the reply
// belongs to the transport. The handler keeps no reference to either.
//
// A handler that sheds load returns an error wrapping ErrBusy, and one
// whose reply cannot travel an error wrapping ErrTooLarge; the caller
// sees that verdict on either transport (see Server). Any other handler
// error is silence, which the caller sees as ErrTimeout.
type Handler interface {
	HandleRPC(ctx context.Context, from Addr, payload []byte) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, from Addr, payload []byte) ([]byte, error)

// HandleRPC calls f.
func (f HandlerFunc) HandleRPC(ctx context.Context, from Addr, payload []byte) ([]byte, error) {
	return f(ctx, from, payload)
}

// Transport is the sender side of an endpoint. The kademlia package
// depends only on this interface, so the same protocol code runs over
// simnet and over real UDP (internal/wire).
type Transport interface {
	// Call sends payload to the endpoint at `to` and blocks until the
	// response arrives, the exchange fails, or ctx ends. A cancelled or
	// expired ctx aborts the in-flight wait and returns ctx.Err() — the
	// caller stops waiting immediately; whatever the exchange would have
	// produced is discarded. Once Call returns the transport keeps no
	// reference to payload, and the result belongs to the caller.
	Call(ctx context.Context, to Addr, payload []byte) ([]byte, error)
	// Addr returns the local address of this endpoint.
	Addr() Addr
	// Close detaches the endpoint; subsequent calls fail.
	Close() error
}

// Errors returned by the simulated network. ErrTimeout stands in for
// every silent failure a UDP exchange can suffer (loss, dead peer,
// partition); protocols cannot distinguish those cases in reality
// either.
var (
	ErrTimeout  = errors.New("simnet: request timed out")
	ErrTooLarge = errors.New("simnet: payload exceeds MTU")
	ErrClosed   = errors.New("simnet: endpoint closed")
)

// ErrBusy reports that the remote endpoint rejected the request at
// admission (work queue full or per-peer rate exceeded). Unlike
// ErrTimeout it is an explicit, near-instant answer from a live node:
// callers should back off and retry, not mark the peer dead.
var ErrBusy = admission.ErrBusy

// Config controls fault injection and accounting.
type Config struct {
	// DropRate is the probability in [0,1) that a request/response
	// exchange is lost. Loss is decided once per exchange.
	DropRate float64
	// MTU is the maximum payload size in bytes; 0 means unlimited.
	MTU int
	// Seed drives the network's random source, so fault decisions are
	// deterministic per global sequence of drop rolls — reproducible
	// under a fixed seed and schedule.
	Seed int64
	// Admission configures the per-endpoint overload gate (bounded work
	// queue + per-peer rate limits). The zero value applies the default
	// bounded queue (admission.DefaultQueueDepth) with no rate limit.
	Admission admission.Config
}

// Counters aggregates network-wide accounting. All fields are totals
// since the network was created.
type Counters struct {
	Calls    int64 // RPC exchanges attempted
	Drops    int64 // exchanges lost to injected faults
	Busy     int64 // exchanges refused busy, at admission or by the handler (ErrBusy)
	BytesOut int64 // request payload bytes
	BytesIn  int64 // response payload bytes
}

// Network connects endpoints. The zero value is not usable; call New.
type Network struct {
	cfg Config

	mu    sync.RWMutex
	nodes map[Addr]*endpoint
	down  map[Addr]bool
	cut   map[[2]Addr]bool // directed (src, dst) pairs

	// The fault-model rng has its own mutex, separate from the map
	// lock, so a drop roll never serialises against a topology change.
	rngMu sync.Mutex
	rng   *rand.Rand

	counters struct {
		calls, drops, busy, bytesOut, bytesIn atomic.Int64
	}
}

type endpoint struct {
	net    *Network
	addr   Addr
	srv    *Server
	peer   *likir.Credential // proven to every handler this endpoint calls; nil for none
	closed atomic.Bool
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Network {
	return &Network{
		cfg:   cfg,
		nodes: make(map[Addr]*endpoint),
		down:  make(map[Addr]bool),
		cut:   make(map[[2]Addr]bool),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Attach registers a handler under addr and returns its Transport.
// Attaching an address twice replaces the previous endpoint. When h has
// a Likir identity (an Identity method returning non-nil, as a
// kademlia.Node has), the endpoint's requests reach their handlers as
// sent by that identity's credential; otherwise they carry no peer.
func (n *Network) Attach(addr Addr, h Handler) Transport {
	ep := &endpoint{net: n, addr: addr, srv: NewServer(h, n.cfg.Admission, n.cfg.MTU)}
	if ih, ok := h.(interface{ Identity() *likir.Identity }); ok {
		if id := ih.Identity(); id != nil {
			ep.peer = &id.Credential
		}
	}
	n.mu.Lock()
	n.nodes[addr] = ep
	n.mu.Unlock()
	return ep
}

// Detach removes the endpoint at addr, if any.
func (n *Network) Detach(addr Addr) {
	n.mu.Lock()
	delete(n.nodes, addr)
	n.mu.Unlock()
}

// SetDown marks addr unreachable (true) or reachable (false) without
// detaching it, simulating a crashed-but-rejoining node.
func (n *Network) SetDown(addr Addr, down bool) {
	n.mu.Lock()
	if down {
		n.down[addr] = true
	} else {
		delete(n.down, addr)
	}
	n.mu.Unlock()
}

// Partition cuts (or heals) the link between a and b in both directions.
func (n *Network) Partition(a, b Addr, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range [...][2]Addr{{a, b}, {b, a}} {
		if cut {
			n.cut[k] = true
		} else {
			delete(n.cut, k)
		}
	}
}

// Counters returns a snapshot of network-wide accounting.
func (n *Network) Counters() Counters {
	return Counters{
		Calls:    n.counters.calls.Load(),
		Drops:    n.counters.drops.Load(),
		Busy:     n.counters.busy.Load(),
		BytesOut: n.counters.bytesOut.Load(),
		BytesIn:  n.counters.bytesIn.Load(),
	}
}

// roll draws this exchange's drop decision from the network's rng:
// deterministic per sequence of rolls under a fixed seed. A fault-free
// network draws nothing, so its calls do not take the rng lock at all.
func (n *Network) roll() bool {
	if n.cfg.DropRate <= 0 {
		return false
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64() < n.cfg.DropRate
}

// AdmissionStats reports this endpoint's admission accounting, as
// wire.UDPTransport does; the chain lives and dies with the endpoint.
func (ep *endpoint) AdmissionStats() admission.Stats { return ep.srv.AdmissionStats() }

// Call implements Transport.
func (ep *endpoint) Call(ctx context.Context, to Addr, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ep.closed.Load() {
		return nil, ErrClosed
	}
	n := ep.net
	n.counters.calls.Add(1)
	if n.cfg.MTU > 0 && len(payload) > n.cfg.MTU {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), n.cfg.MTU)
	}

	n.mu.RLock()
	target, ok := n.nodes[to]
	unreachable := n.down[ep.addr] || n.down[to] || n.cut[[2]Addr{ep.addr, to}]
	n.mu.RUnlock()

	drop := n.roll()
	if !ok || unreachable || drop || target.closed.Load() {
		n.counters.drops.Add(1)
		return nil, ErrTimeout
	}

	n.counters.bytesOut.Add(int64(len(payload)))

	// Admission at the receiver: the target either takes the request into
	// its bounded work queue or answers busy immediately. Rejection is an
	// explicit cheap reply, not silence — distinct from Drops.
	if err := target.srv.Admit(ep.addr); err != nil {
		return ep.finish(to, nil, err)
	}

	hctx := ep.senderContext(ctx)
	if ctx.Done() == nil {
		// Uncancellable context (Background/TODO): keep the synchronous
		// fast path — no goroutine per simulated RPC.
		resp, err := target.srv.Serve(hctx, ep.addr, payload)
		return ep.finish(to, resp, err)
	}
	type handled struct {
		resp []byte
		err  error
	}
	ch := make(chan handled, 1)
	go func() {
		// The handler goroutine holds its admission slot until it
		// finishes, even after the caller below gives up. That is the
		// bound that fixes the cancellation goroutine leak: abandoned
		// handlers can pile up only to QueueDepth before the endpoint
		// starts answering busy instead of spawning more.
		resp, err := target.srv.Serve(hctx, ep.addr, payload)
		ch <- handled{resp, err}
	}()
	select {
	case <-ctx.Done():
		// The waiter is aborted; the handler observes the same ctx and is
		// expected to wind down, though it may well have applied the write
		// already — exactly like a response lost on the wire. Its reply,
		// if any, is never received and goes to the GC. Deliberately NOT
		// counted as a drop: Drops measures the injected fault model, and
		// a caller giving up is not simulated packet loss.
		return nil, ctx.Err()
	case h := <-ch:
		return ep.finish(to, h.resp, h.err)
	}
}

// senderContext returns the handler context of a request this endpoint
// sends: ctx carrying the endpoint's credential as the peer. ctx is the
// caller's own, which may be a handler's context carrying the peer that
// called it, so an endpoint without an identity shadows that peer
// rather than pass it on; a ctx with no peer is used as it is.
func (ep *endpoint) senderContext(ctx context.Context) context.Context {
	if ep.peer != nil {
		return session.WithPeer(ctx, ep.peer)
	}
	if _, ok := session.PeerFromContext(ctx); ok {
		return session.WithPeer(ctx, nil)
	}
	return ctx
}

// finish counts the outcome of an exchange the target's chain judged:
// a reply, a busy verdict, or a lost one (silence or too large).
func (ep *endpoint) finish(to Addr, resp []byte, err error) ([]byte, error) {
	n := ep.net
	switch {
	case err == nil:
		n.counters.bytesIn.Add(int64(len(resp)))
		return resp, nil
	case errors.Is(err, ErrBusy):
		n.counters.busy.Add(1)
		return nil, fmt.Errorf("simnet: %s refused request: %w", to, err)
	}
	n.counters.drops.Add(1)
	return nil, err
}

// Addr implements Transport.
func (ep *endpoint) Addr() Addr { return ep.addr }

// Close implements Transport.
func (ep *endpoint) Close() error {
	if ep.closed.CompareAndSwap(false, true) {
		ep.net.Detach(ep.addr)
	}
	return nil
}
