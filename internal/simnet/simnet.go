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
// Wall-clock time is never consumed: simulated latency is accumulated in
// counters instead of slept, which keeps large experiments fast while
// still reporting how much network time a protocol would have spent.
//
// The network state is sharded: endpoints, down/partition flags, and
// per-node statistics live in numShards stripes keyed by an address
// hash, and each stripe carries its own seeded random source. No
// operation on the hot Call path takes a network-wide lock, which is
// what lets a single Network carry 10k+ endpoints with concurrent
// callers (see BenchmarkCallContention).
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"dharma/internal/admission"
	"dharma/internal/obs"
)

// Addr identifies an endpoint on the network.
type Addr string

// Handler processes one inbound RPC and returns the response payload.
// Handlers are invoked concurrently and must be safe for concurrent use.
// ctx is the server-side context for this request: it ends when the
// caller gives up or the serving transport shuts down, so long-running
// handlers (storage commits, anything that blocks) should watch it and
// stop wasting work that nobody will read.
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
	// produced is discarded.
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
	// Seed drives the network's random sources. Each of the numShards
	// stripes derives its own rng from (Seed, shard index), so fault
	// decisions are deterministic per (shard, call sequence within that
	// shard) rather than per global call sequence — reproducible under
	// a fixed seed and schedule, and free of a global rng lock.
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
	Busy     int64 // exchanges rejected at admission (ErrBusy)
	BytesOut int64 // request payload bytes
	BytesIn  int64 // response payload bytes
}

// numShards is the stripe count for the endpoint/down/cut/stats maps
// and the per-stripe rngs. 64 keeps the per-stripe population small
// even at 10k endpoints while the array overhead stays negligible for
// tiny test networks.
const numShards = 64

// shard is one stripe of the network state. The fault-model rng is
// guarded by its own mutex, separate from the map lock, so a drop roll
// never serialises against an Attach/SetDown on the same stripe.
type shard struct {
	mu      sync.RWMutex
	nodes   map[Addr]*endpoint
	down    map[Addr]bool
	cut     map[[2]Addr]bool // directed (src, dst) pairs, keyed by src's shard
	perNode map[Addr]*NodeStats

	rngMu sync.Mutex
	rng   *rand.Rand
}

// Network connects endpoints. The zero value is not usable; call New.
type Network struct {
	cfg      Config
	shards   [numShards]shard
	counters struct {
		calls, drops, busy, bytesOut, bytesIn atomic.Int64
	}
}

// NodeStats counts traffic observed at a single endpoint.
type NodeStats struct {
	Sent     atomic.Int64 // requests originated
	Received atomic.Int64 // requests offered (including admission rejects)
}

type endpoint struct {
	net     *Network
	addr    Addr
	handler Handler
	ctrl    *admission.Controller
	stats   *NodeStats // this endpoint's own counters, resolved at Attach
	closed  atomic.Bool
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Network {
	n := &Network{cfg: cfg}
	for i := range n.shards {
		s := &n.shards[i]
		s.nodes = make(map[Addr]*endpoint)
		s.down = make(map[Addr]bool)
		s.cut = make(map[[2]Addr]bool)
		s.perNode = make(map[Addr]*NodeStats)
		// Mix the shard index into the seed with a 64-bit odd constant
		// (splitmix64's increment) so adjacent seeds do not produce
		// correlated shard streams.
		s.rng = rand.New(rand.NewSource(cfg.Seed ^ (int64(i+1) * -0x61c8864680b583eb)))
	}
	return n
}

// shardOf maps an address onto its stripe with FNV-1a.
func (n *Network) shardOf(addr Addr) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return &n.shards[h%numShards]
}

// statsLocked returns the per-node counters for addr within s, creating
// them if needed. Callers hold s.mu.
func (s *shard) statsLocked(addr Addr) *NodeStats {
	st, ok := s.perNode[addr]
	if !ok {
		st = &NodeStats{}
		s.perNode[addr] = st
	}
	return st
}

// Attach registers a handler under addr and returns its Transport.
// Attaching an address twice replaces the previous endpoint. The
// endpoint's own stats pointer is resolved here, once, so the Call path
// never looks the sender up again.
func (n *Network) Attach(addr Addr, h Handler) Transport {
	ep := &endpoint{net: n, addr: addr, handler: h, ctrl: admission.New(n.cfg.Admission)}
	s := n.shardOf(addr)
	s.mu.Lock()
	ep.stats = s.statsLocked(addr)
	s.nodes[addr] = ep
	s.mu.Unlock()
	return ep
}

// Detach removes the endpoint at addr, if any.
func (n *Network) Detach(addr Addr) {
	s := n.shardOf(addr)
	s.mu.Lock()
	delete(s.nodes, addr)
	s.mu.Unlock()
}

// SetDown marks addr unreachable (true) or reachable (false) without
// detaching it, simulating a crashed-but-rejoining node.
func (n *Network) SetDown(addr Addr, down bool) {
	s := n.shardOf(addr)
	s.mu.Lock()
	if down {
		s.down[addr] = true
	} else {
		delete(s.down, addr)
	}
	s.mu.Unlock()
}

// Partition cuts (or heals) the link between a and b in both directions.
// Each direction is recorded in the sending side's shard, which is the
// stripe Call already consults for the sender.
func (n *Network) Partition(a, b Addr, cut bool) {
	n.partitionDirected(a, b, cut)
	n.partitionDirected(b, a, cut)
}

func (n *Network) partitionDirected(src, dst Addr, cut bool) {
	s := n.shardOf(src)
	k := [2]Addr{src, dst}
	s.mu.Lock()
	if cut {
		s.cut[k] = true
	} else {
		delete(s.cut, k)
	}
	s.mu.Unlock()
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

// Instrument registers the network-wide counters on reg as scrape-time
// funcs, so a simulated deployment exposes the same ops surface as a
// real one. A nil reg is a no-op.
func (n *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("dharma_simnet_calls_total",
		"RPC exchanges attempted across the simulated network.", n.counters.calls.Load)
	reg.CounterFunc("dharma_simnet_drops_total",
		"Exchanges lost to injected faults.", n.counters.drops.Load)
	reg.CounterFunc("dharma_simnet_busy_total",
		"Exchanges rejected at admission.", n.counters.busy.Load)
	reg.CounterFunc("dharma_simnet_request_bytes_total",
		"Request payload bytes carried.", n.counters.bytesOut.Load)
	reg.CounterFunc("dharma_simnet_response_bytes_total",
		"Response payload bytes carried.", n.counters.bytesIn.Load)
}

// Stats returns the per-node counters for addr, creating them if needed
// so that callers can query nodes that have not sent traffic yet. The
// returned pointer is stable for the life of the network; callers that
// poll a node repeatedly should keep it instead of re-resolving.
func (n *Network) Stats(addr Addr) *NodeStats {
	s := n.shardOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked(addr)
}

// BusiestNodes returns addresses sorted by requests served, descending.
// It is used by the hotspot experiment (A3). Counts are snapshotted
// once per node, so the sort itself takes no locks.
func (n *Network) BusiestNodes() []Addr {
	type nodeLoad struct {
		addr     Addr
		received int64
	}
	var loads []nodeLoad
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.RLock()
		for a, st := range s.perNode {
			loads = append(loads, nodeLoad{addr: a, received: st.Received.Load()})
		}
		s.mu.RUnlock()
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].received != loads[j].received {
			return loads[i].received > loads[j].received
		}
		return loads[i].addr < loads[j].addr
	})
	out := make([]Addr, len(loads))
	for i, l := range loads {
		out[i] = l.addr
	}
	return out
}

// roll draws this exchange's drop decision from the sender shard's
// rng: deterministic per (shard, sequence of rolls in that shard) under
// a fixed seed. A fault-free network draws nothing, so its calls do not
// take the rng lock at all.
func (s *shard) roll(cfg *Config) bool {
	if cfg.DropRate <= 0 {
		return false
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Float64() < cfg.DropRate
}

// AdmissionStats reports this endpoint's admission accounting, as
// wire.UDPTransport does; the controller lives and dies with the endpoint.
func (ep *endpoint) AdmissionStats() admission.Stats { return ep.ctrl.Stats() }

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

	// Sender-side state (down flag, outbound partition cuts) lives in
	// the sender's stripe; the target endpoint and its down flag in the
	// target's. The two reads are sequential, never nested, so equal
	// stripes cannot deadlock.
	src := n.shardOf(ep.addr)
	src.mu.RLock()
	downSrc := src.down[ep.addr]
	cut := src.cut[[2]Addr{ep.addr, to}]
	src.mu.RUnlock()

	dst := n.shardOf(to)
	dst.mu.RLock()
	target, ok := dst.nodes[to]
	downDst := dst.down[to]
	dst.mu.RUnlock()

	drop := src.roll(&n.cfg)
	if !ok || downSrc || downDst || cut || drop || target.closed.Load() {
		n.counters.drops.Add(1)
		return nil, ErrTimeout
	}

	n.counters.bytesOut.Add(int64(len(payload)))
	// Both stats pointers are already resolved: the sender's since
	// Attach, the receiver's on its own endpoint — no network-wide (or
	// even stripe) lock on the per-RPC stats path.
	ep.stats.Sent.Add(1)
	target.stats.Received.Add(1)

	// Admission at the receiver: the target either takes the request into
	// its bounded work queue or answers busy immediately. Rejection is an
	// explicit cheap reply, not silence — distinct from Drops.
	release, aerr := target.ctrl.Admit(string(ep.addr))
	if aerr != nil {
		n.counters.busy.Add(1)
		return nil, fmt.Errorf("simnet: %s rejected request: %w", to, aerr)
	}

	if ctx.Done() == nil {
		// Uncancellable context (Background/TODO): keep the synchronous
		// fast path — no goroutine per simulated RPC.
		defer release()
		return ep.finish(target.handler.HandleRPC(ctx, ep.addr, payload))
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
		defer release()
		resp, err := target.handler.HandleRPC(ctx, ep.addr, payload)
		ch <- handled{resp, err}
	}()
	select {
	case <-ctx.Done():
		// The waiter is aborted; the handler observes the same ctx and is
		// expected to wind down, though it may well have applied the write
		// already — exactly like a response lost on the wire. Deliberately
		// NOT counted as a drop: Drops measures the injected fault model,
		// and a caller giving up is not simulated packet loss.
		return nil, ctx.Err()
	case h := <-ch:
		return ep.finish(h.resp, h.err)
	}
}

// finish applies the response-side accounting and fault model shared by
// the synchronous and cancellable call paths.
func (ep *endpoint) finish(resp []byte, err error) ([]byte, error) {
	n := ep.net
	if err != nil {
		// A handler error is delivered as a timeout: over UDP the caller
		// would simply never hear back.
		n.counters.drops.Add(1)
		return nil, ErrTimeout
	}
	if n.cfg.MTU > 0 && len(resp) > n.cfg.MTU {
		n.counters.drops.Add(1)
		return nil, fmt.Errorf("%w: response %d > %d", ErrTooLarge, len(resp), n.cfg.MTU)
	}
	n.counters.bytesIn.Add(int64(len(resp)))
	return resp, nil
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
