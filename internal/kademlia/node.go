// Package kademlia implements the structured overlay DHARMA runs on: a
// complete Kademlia node (XOR-metric routing table, iterative lookups
// with parallelism α, STORE/FIND_VALUE with k-closest replication)
// extended with the two features the paper requires of its DHT layer:
// append-only block updates ("one-bit tokens") and index-side filtering
// on reads. An optional Likir identity layer authenticates both nodes
// and stored entries.
//
// The protocol logic is transport-agnostic: it speaks through the
// simnet.Transport interface, so the same node runs on the in-memory
// instrumented network (tests, experiments) and on real UDP
// (cmd/dharma-node).
package kademlia

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dharma/internal/admission"
	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/obs"
	"dharma/internal/session"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// Protocol defaults; K and Alpha are the constants of the Kademlia
// paper.
const (
	DefaultK     = 20
	DefaultAlpha = 3

	// DefaultBusyRetries and DefaultBusyBackoff shape the client's
	// reaction to BUSY rejections: up to 3 retries starting from a 2ms
	// base, doubling each attempt with uniform jitter, so a storm of
	// rejected writers decorrelates instead of re-arriving in lockstep.
	DefaultBusyRetries = 3
	DefaultBusyBackoff = 2 * time.Millisecond
)

// Errors returned by overlay operations.
var (
	ErrNotFound   = errors.New("kademlia: value not found")
	ErrNoContacts = errors.New("kademlia: routing table is empty")

	// errDetached is returned by outbound calls of a node that has no
	// live endpoint (crashed or departed).
	errDetached = errors.New("kademlia: node is detached")
	// errNotAcked records a STORE answered with something other than an
	// ack; it counts as neither an ack nor a verdict.
	errNotAcked = errors.New("kademlia: store answered without an ack")
)

// Config parameterises a node.
type Config struct {
	// K is the bucket size and replication factor (default DefaultK).
	K int
	// Alpha is the lookup parallelism (default DefaultAlpha).
	Alpha int
	// Identity is the node's Likir identity. When set, outbound RPCs
	// carry the marshalled credential.
	Identity *likir.Identity
	// CAPub, when set, makes the node reject RPCs from peers without a
	// valid credential and drop stored entries whose signature fails.
	CAPub ed25519.PublicKey
	// Revoked, when set, rejects peers whose identifier it reports as
	// withdrawn. It is consulted on every message (a revocation cuts
	// off peers that were admitted earlier). Typically backed by a
	// likir.RevocationSet refreshed from the authority's bundle.
	Revoked func(kadid.ID) bool
	// Store, when set, is the node's block storage — typically a
	// durable store from OpenDurableStore, so the node's blocks outlive
	// its process. Nil creates a fresh in-memory store.
	Store *Store
	// BusyRetries is how many times an outbound RPC answered with BUSY
	// is retried with jittered exponential backoff before the error is
	// surfaced (≤ 0 = DefaultBusyRetries).
	// A busy peer is alive — it is never evicted from the routing table.
	BusyRetries int
	// BusyBackoff is the base delay of the busy-retry schedule; attempt
	// i sleeps a uniformly jittered multiple of BusyBackoff·2^i
	// (default DefaultBusyBackoff).
	BusyBackoff time.Duration
	// MinStoreAcks is how many replica acknowledgements a Store needs
	// before reporting success (default 1). The churn invariant —
	// acknowledged writes survive replica crashes — is only as strong
	// as the acknowledgement: a write acked by a single replica dies
	// with that replica if it crashes before any repair round spreads
	// the block. Raising the quorum trades write availability under
	// faults for durability.
	MinStoreAcks int
	// TraceSlow captures the hop-by-hop trace of every lookup slower
	// than this threshold into the ring served by RecentTraces (default
	// DefaultTraceSlow; negative disables capture). This is the "why
	// was this navigate slow" knob: the spans are recorded before
	// anyone knows the op will be slow, so the evidence is there when
	// it is.
	TraceSlow time.Duration
	// OnTrace, when set, is called synchronously with every captured
	// trace (after it entered the ring) — the hook slow-op logging hangs
	// off. It must not block.
	OnTrace func(*LookupTrace)
	// ChaosDelay, when positive, delays every inbound RPC handler by
	// this duration — under the caller's propagated deadline — before
	// dispatch. It is a fault-injection knob: it makes "the server was
	// slower than the client's budget" deterministic, which is what the
	// deadline-shedding smoke test needs. Never set in production.
	ChaosDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = DefaultK
	}
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	if c.MinStoreAcks <= 0 {
		c.MinStoreAcks = 1
	}
	if c.BusyRetries <= 0 {
		c.BusyRetries = DefaultBusyRetries
	}
	if c.BusyBackoff <= 0 {
		c.BusyBackoff = DefaultBusyBackoff
	}
	if c.TraceSlow == 0 {
		c.TraceSlow = DefaultTraceSlow
	} else if c.TraceSlow < 0 {
		c.TraceSlow = 0
	}
	return c
}

// Node is one overlay participant.
type Node struct {
	cfg   Config
	id    kadid.ID // immutable
	table *Table
	store *Store

	// selfMu guards the attachable state: the transport and the
	// contact's address. Both change when a crashed node is revived at
	// a new endpoint, which can race with a stray in-flight RPC still
	// executing this node's handler.
	selfMu    sync.RWMutex
	self      wire.Contact
	transport simnet.Transport
	// detached is true while the node has no live endpoint (never
	// attached, gracefully departed, or crashed). A detached node must
	// not interpret its own send failures as peers being dead — its
	// routing table has to survive a crash the way its store does.
	detached atomic.Bool
	// inMemory marks a member Cluster.start built with no data directory
	// and no caller-supplied Store (see fanOut); Attach leaves it alone.
	inMemory bool
	// ops bounds the block operations (Store, FindValue) the node runs
	// at once, adaptively: see admission.Limit and startBlockOp.
	ops *admission.Limit

	credBlob []byte

	// credCache remembers peers whose credential already verified, so
	// the Ed25519 check runs once per peer rather than once per message.
	credMu   sync.RWMutex
	credSeen map[kadid.ID]bool

	// Anti-entropy state (antientropy.go). aeMu guards the per-block
	// timer maps: the version observed at the previous round (aeSeen),
	// the version and round of the last completed sync (aeSyncedV,
	// aeRoundAt) and the round counter.
	aeMu       sync.Mutex
	aeSeen     map[kadid.ID]uint64
	aeSyncedV  map[kadid.ID]uint64
	aeRoundAt  map[kadid.ID]int64
	aeRoundCtr int64

	maintRounds atomic.Int64 // MaintainOnce rounds run; seeds each round's refresh choices

	// replicas remembers the replica set of each key this node stored
	// to, so the next Store of the key skips the walk (see Store).
	replicas replicaSets

	// arenas recycles lookup working state (candidate lists, seen map,
	// seed buffer, probe messages) and scratch the per-RPC decode state
	// of both ends, so steady-state lookups and served requests allocate
	// no bookkeeping. See lookupArena, rpcScratch and freeList.
	arenas  freeList[lookupArena]
	scratch freeList[rpcScratch]

	// Telemetry (metrics.go, trace.go). reg holds every instrument the
	// node registers; counters are registered by NewNode, metrics is the
	// zero value — all no-ops — until Instrument turns timing on.
	reg      *obs.Registry
	counters Counters
	metrics  nodeMetrics
	traceSeq atomic.Uint64
	traces   traceRing
}

// NewNode creates a node with identifier self. Attach must be called
// with a live transport before the node can serve or send RPCs.
func NewNode(self kadid.ID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	if cfg.Identity != nil {
		self = cfg.Identity.NodeID // Likir: the identity fixes the ID
	}
	store := cfg.Store
	if store == nil {
		store = NewStore()
	}
	reg := obs.NewRegistry()
	n := &Node{
		cfg:       cfg,
		id:        self,
		self:      wire.Contact{ID: self},
		store:     store,
		credSeen:  make(map[kadid.ID]bool),
		aeSeen:    make(map[kadid.ID]uint64),
		aeSyncedV: make(map[kadid.ID]uint64),
		aeRoundAt: make(map[kadid.ID]int64),
		replicas:  replicaSets{max: max(1, replicaCacheContacts/cfg.K), sets: make(map[kadid.ID][]wire.Contact)},
		ops:       admission.NewLimit(0),
		reg:       reg,
		counters:  newCounters(reg),
	}
	n.detached.Store(true) // until Attach
	n.table = NewTable(self, cfg.K, nil)
	reg.GaugeFunc("dharma_routing_table_peers",
		"Live contacts in the routing table.", func() int64 { return int64(n.table.Len()) })
	reg.GaugeFunc("dharma_block_op_limit",
		"Block operations the node may run at once: its adaptive limit, halved by overload.", func() int64 { return int64(n.ops.Value()) })
	reg.GaugeFunc("dharma_store_blocks",
		"Blocks held by the local store.", func() int64 { return int64(n.store.Len()) })
	if cfg.Identity != nil {
		n.credBlob = cfg.Identity.Credential.Marshal()
	}
	return n
}

// Detached reports whether the node currently has no live endpoint.
func (n *Node) Detached() bool { return n.detached.Load() }

// Attach binds the node to a transport endpoint. The typical sequence
// is: node := NewNode(...); tr := net.Attach(addr, node); node.Attach(tr).
// Re-attaching (a crashed node reviving) is safe while RPCs are in
// flight. It starts a new routing epoch: a node coming back learns
// nothing of what moved while it was away, so the replica sets it
// cached before are not trusted.
func (n *Node) Attach(tr simnet.Transport) {
	n.selfMu.Lock()
	n.transport = tr
	n.self.Addr = string(tr.Addr())
	n.selfMu.Unlock()
	n.table.newEpoch()
	n.detached.Store(false)
}

// Self returns the node's own contact.
func (n *Node) Self() wire.Contact {
	n.selfMu.RLock()
	defer n.selfMu.RUnlock()
	return n.self
}

// Identity returns the node's Likir identity, nil on an open overlay.
func (n *Node) Identity() *likir.Identity { return n.cfg.Identity }

// Config returns the node's configuration with defaults applied —
// what a peer wanting to join as an equal member should run with. The
// per-node Identity and Store are stripped (a joiner must bring its
// own); the shared CA key and every protocol parameter carry over.
func (n *Node) Config() Config {
	cfg := n.cfg
	cfg.Identity = nil
	cfg.Store = nil
	cfg.OnTrace = nil // per-node hook, not protocol configuration
	return cfg
}

// Transport returns the transport the node is currently attached to
// (nil while detached). The facade uses it to reach transport-level
// statistics — admission counters live with the endpoint, not the node.
func (n *Node) Transport() simnet.Transport {
	n.selfMu.RLock()
	defer n.selfMu.RUnlock()
	return n.transport
}

// Table exposes the routing table (read-mostly; used by tests and the
// hotspot experiment).
func (n *Node) Table() *Table { return n.table }

// LocalStore exposes the node's block storage.
func (n *Node) LocalStore() *Store { return n.store }

// Metrics returns the node's registry: its counters always, its timing
// histograms once Instrument ran, and whatever the embedding layer
// registered next to them (transport, sessions, WAL). obs.Handler
// serves it as /metrics.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// Counters returns the node's counters; see Counters.
func (n *Node) Counters() *Counters { return &n.counters }

// RPCServed returns how many RPC requests this node has answered.
func (n *Node) RPCServed() int64 { return n.counters.RPCServed.Load() }

// rpcScratch is the reusable working state of one end of an RPC. The
// decoder's intern table makes repeated addresses and field names free;
// req, reply and cs are HandleRPC's request, response and NODES contact
// list, which live only until the response is encoded. What a handler
// keeps from req is safe to keep: strings are immutable, blobs are
// fresh copies, and the store and its WAL finish reading req.Entries
// before Append/MergeMax return, even when ctx ends first.
type rpcScratch struct {
	dec        wire.Decoder
	req, reply wire.Message
	cs         []wire.Contact
}

// maxScratchEntries bounds the request entry list an idle scratch
// retains: one bulk REPLICATE must not pin its array for good.
const maxScratchEntries = 256

func (n *Node) putScratch(sc *rpcScratch) {
	sc.reply = wire.Message{} // drop the references to store results
	if cap(sc.req.Entries) > maxScratchEntries {
		sc.req.Entries = nil
	}
	n.scratch.put(sc)
}

// HandleRPC implements simnet.Handler: it decodes one request, updates
// the routing table with the caller, and dispatches. ctx is the
// server-side request context: work whose caller has already given up
// (or whose transport is shutting down) is shed at the door, and
// storage commits run under it so a cancelled write does not pin the
// handler for a whole WAL flush.
func (n *Node) HandleRPC(ctx context.Context, from simnet.Addr, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var start time.Time
	if n.metrics.rpcLatency != nil {
		start = time.Now()
	}
	sc := n.scratch.get()
	defer n.putScratch(sc)
	msg, resp := &sc.req, &sc.reply
	if err := sc.dec.DecodeInto(msg, payload); err != nil {
		return nil, err
	}
	n.counters.RPCServed.Inc()

	// Cross-node deadline propagation: the caller stamped its remaining
	// budget (µs) on the message. Install it as this handler's deadline
	// so storage commits and downstream work observe the caller's
	// patience, and shed requests that are already dead on arrival
	// instead of computing answers nobody is waiting for.
	if msg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(msg.Deadline)*time.Microsecond)
		defer cancel()
	}
	if d := n.cfg.ChaosDelay; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
	}
	if err := ctx.Err(); err != nil {
		n.counters.DeadlineShed.At(int(msg.Kind) - 1).Inc()
		// No reply: the caller's budget is spent, so any answer would be
		// garbage-collected by its transport anyway.
		return nil, err
	}

	if err := n.admit(ctx, msg); err != nil {
		n.rejectUnauthorized(msg.Kind)
		return wire.Encode(&wire.Message{Kind: wire.KindUnauthorized, From: n.Self(), Err: err.Error()}), nil
	}
	if msg.From.ID != (kadid.ID{}) && msg.From.Addr != "" {
		n.table.Update(msg.From)
	}

	closest := func(target kadid.ID) []wire.Contact {
		sc.cs = n.table.ClosestInto(target, n.cfg.K, sc.cs)
		return sc.cs
	}

	switch msg.Kind {
	case wire.KindPing:
		*resp = wire.Message{Kind: wire.KindPong}

	case wire.KindFindNode:
		*resp = wire.Message{
			Kind:     wire.KindNodes,
			Contacts: closest(msg.Target),
		}

	case wire.KindFindValue:
		if entries, ok := n.store.Get(msg.Target, int(msg.TopN)); ok {
			*resp = wire.Message{Kind: wire.KindValue, Entries: entries}
		} else {
			*resp = wire.Message{
				Kind:     wire.KindNodes,
				Contacts: closest(msg.Target),
			}
		}

	case wire.KindSummary:
		// Anti-entropy digest exchange: answer with our summary; on
		// mismatch also enumerate our (field, count) map so the caller
		// can compute the exact delta. A block too wide to enumerate in
		// one message answers with the bare summary — the caller falls
		// back to a full push.
		*resp = wire.Message{Kind: wire.KindSummaryReply}
		if sum, ok := n.store.Summary(msg.Target); ok {
			resp.Summary = sum
			if sum != msg.Summary {
				if counts, ok := n.store.Counts(msg.Target); ok && len(counts) <= wire.MaxListLen {
					resp.Entries = counts
				}
			}
		}

	case wire.KindStore, wire.KindReplicate:
		if n.cfg.CAPub != nil {
			if reason := n.vetMutation(msg); reason != "" {
				// Strict signed-mutation rule: the whole message is refused
				// and nothing lands. A filter-and-ack here would let a
				// tampered batch earn an acknowledgement, which upper layers
				// read as "durably stored".
				n.rejectUnauthorized(msg.Kind)
				*resp = wire.Message{Kind: wire.KindUnauthorized, Err: reason}
				break
			}
		}
		var serr error
		if msg.Kind == wire.KindStore {
			serr = n.store.Append(ctx, msg.Target, msg.Entries)
		} else {
			serr = n.store.MergeMax(ctx, msg.Target, msg.Entries)
		}
		if serr != nil {
			// A durable store that could not log the write must not ack
			// it: the sender sees a failure and withholds its own ack,
			// which is the whole durability contract.
			*resp = wire.Message{Kind: wire.KindError, Err: serr.Error()}
		} else {
			*resp = wire.Message{Kind: wire.KindStoreAck}
		}

	default:
		*resp = wire.Message{Kind: wire.KindError, Err: fmt.Sprintf("unexpected %v", msg.Kind)}
	}
	resp.From = n.Self()
	// A free-list buffer: the transport owns it now and hands it back.
	out := wire.EncodePooled(resp)
	if h := n.metrics.kindHist(msg.Kind); h != nil {
		h.Observe(time.Since(start))
		ki := int(msg.Kind) - 1
		n.metrics.rpcReqBytes.At(ki).Add(int64(len(payload)))
		n.metrics.rpcRespBytes.At(ki).Add(int64(len(out)))
	}
	return out, nil
}

// admit enforces Likir node admission when a CA public key is
// configured: requests must carry a valid credential matching the
// claimed sender identifier. Requests arriving over a transport
// session (wire.UDPTransport handshake) were already authenticated
// against the same CA key; the per-message credential check is skipped
// for them — revocation is still consulted every time, because a
// bundle refresh can outdate a session that verified cleanly at
// handshake.
func (n *Node) admit(ctx context.Context, msg *wire.Message) error {
	if n.cfg.Revoked != nil && n.cfg.Revoked(msg.From.ID) {
		return errors.New("kademlia: peer identity revoked")
	}
	if n.cfg.CAPub == nil {
		return nil
	}
	if peer, ok := session.PeerFromContext(ctx); ok && peer.NodeID == msg.From.ID {
		return nil // session handshake already verified this identity
	}
	if msg.From.ID == (kadid.ID{}) {
		return nil // anonymous probe (no routing-table update happens)
	}
	n.credMu.RLock()
	ok := n.credSeen[msg.From.ID]
	n.credMu.RUnlock()
	if ok {
		return nil
	}
	if len(msg.Cred) == 0 {
		return errors.New("kademlia: credential required")
	}
	cred, err := likir.UnmarshalCredential(msg.Cred)
	if err != nil {
		return err
	}
	if err := likir.VerifyCredential(n.cfg.CAPub, cred, nil); err != nil {
		return err
	}
	if cred.NodeID != msg.From.ID {
		return fmt.Errorf("%w: sender id does not match credential", likir.ErrBadCredential)
	}
	n.credMu.Lock()
	n.credSeen[msg.From.ID] = true
	n.credMu.Unlock()
	return nil
}

// vetMutation enforces the signed-mutation rule of a secured overlay
// on one STORE/REPLICATE message. The sender must be identified (an
// anonymous probe may read, never write), every Data-bearing entry
// must carry an author signature, and every signature present must
// verify over (block key, field, data). Count-only entries stay
// unsigned by design: they aggregate one-bit tokens appended by many
// writers and are not attributable to a single author. Returns the
// rejection reason, or "" to accept.
func (n *Node) vetMutation(msg *wire.Message) string {
	if msg.From.ID == (kadid.ID{}) {
		return "kademlia: anonymous mutation rejected"
	}
	return vetEntries(msg.Target, msg.Entries)
}

// vetEntries applies the entry half of the signed-mutation rule; see
// vetMutation.
func vetEntries(key kadid.ID, entries []wire.Entry) string {
	for i := range entries {
		e := &entries[i]
		if len(e.Data) > 0 && len(e.Author) == 0 {
			return fmt.Sprintf("kademlia: unsigned data entry %q", e.Field)
		}
		if err := likir.VerifyEntry(key, e.Field, e.Data, e.Author, e.Sig); err != nil {
			return fmt.Sprintf("kademlia: entry %q: %v", e.Field, err)
		}
	}
	return ""
}

// rejectUnauthorized records one UNAUTHORIZED verdict in the node's
// counters.
func (n *Node) rejectUnauthorized(k wire.Kind) {
	n.counters.AuthRejected.At(int(k) - 1).Inc()
}

// call sends one RPC and maintains the routing table on success and
// failure. ctx bounds the exchange: when it ends, the transport's
// in-flight waiter is aborted and ctx.Err() comes back. BUSY answers
// are retried with jittered exponential backoff (up to
// Config.BusyRetries times) before being surfaced. The reply is decoded
// into resp, which the caller owns (see callOnce).
func (n *Node) call(ctx context.Context, to wire.Contact, msg, resp *wire.Message) error {
	backoff := n.cfg.BusyBackoff
	for attempt := 0; ; attempt++ {
		err := n.callOnce(ctx, to, msg, resp)
		if err == nil || !errors.Is(err, wire.ErrBusy) || attempt >= n.cfg.BusyRetries {
			return err
		}
		// Uniform jitter in [0.5, 1.5)·backoff: retriers that were
		// rejected together must not knock again together.
		delay := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		backoff *= 2
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// callOnce performs a single exchange. A BUSY answer — whether a
// transport-level admission rejection or a decoded KindBusy reply — is
// returned wrapping wire.ErrBusy and, crucially, does NOT evict the
// peer from the routing table: busy means alive, the same way
// cancellation means nothing (PR 5's rule).
//
// The reply is decoded into resp through a per-node interning decoder.
// resp's Contacts and Entries arrays are reused across calls, so a
// caller that hands the same resp to a later call must be done with
// those slices first; strings and blobs inside them stay valid forever.
func (n *Node) callOnce(ctx context.Context, to wire.Contact, msg, resp *wire.Message) error {
	if n.detached.Load() {
		return errDetached
	}
	n.selfMu.RLock()
	msg.From = n.self
	tr := n.transport
	n.selfMu.RUnlock()
	msg.Cred = n.credBlob
	// Stamp the caller's remaining budget on the wire so the receiver
	// can shed the request if it arrives already dead. Zero means "no
	// deadline"; a context that is over before encoding is refused here,
	// saving the packet.
	msg.Deadline = 0
	if dl, ok := ctx.Deadline(); ok {
		left := time.Until(dl)
		if left <= 0 {
			return context.DeadlineExceeded
		}
		msg.Deadline = uint64(left / time.Microsecond)
		if msg.Deadline == 0 {
			msg.Deadline = 1 // sub-µs remainder still counts as a budget
		}
	}
	// The request is marshalled into a free-list buffer. It is recycled
	// only when the exchange did not end via ctx: a cancelled simnet
	// call can leave an abandoned handler goroutine still draining the
	// payload, so those buffers are dropped to the GC instead.
	req := wire.EncodePooled(msg)
	// Maintenance-plane byte accounting: SUMMARY exchanges and REPLICATE
	// pushes (anti-entropy and handoff) are what the bandwidth-frugality
	// claim is about, so their payload sizes are metered
	// transport-independently here. Only a completed exchange counts: a
	// request that never left (too large) or never got an answer moved
	// no maintenance data.
	maint := msg.Kind == wire.KindSummary || msg.Kind == wire.KindReplicate
	raw, err := tr.Call(ctx, simnet.Addr(to.Addr), req)
	if maint && err == nil {
		n.counters.MaintBytesSent.Add(int64(len(req)))
		n.counters.MaintBytesRecv.Add(int64(len(raw)))
	}
	if ctx.Err() == nil {
		wire.Recycle(req)
	}
	if err != nil {
		// A local send failure (endpoint closed under us) says nothing
		// about the peer; only a timed-out exchange does. Likewise a
		// caller giving up (ctx ended) is not evidence the peer is dead,
		// and neither is an explicit busy rejection or a size verdict on
		// a message too large for the transport.
		if !errors.Is(err, simnet.ErrClosed) && !errors.Is(err, wire.ErrBusy) &&
			!errors.Is(err, simnet.ErrTooLarge) && ctx.Err() == nil {
			n.table.Remove(to.ID)
		}
		return err
	}
	// The reply is ours and resp holds only copies, so it goes back now.
	sc := n.scratch.get()
	err = sc.dec.DecodeInto(resp, raw)
	n.scratch.put(sc)
	wire.Recycle(raw)
	if err != nil {
		return err
	}
	if resp.Kind == wire.KindBusy {
		return fmt.Errorf("kademlia: %s is busy: %w", to.Addr, wire.ErrBusy)
	}
	if resp.Kind == wire.KindUnauthorized {
		// An UNAUTHORIZED verdict comes from a live, policy-enforcing
		// peer: surface the typed error and keep the peer routable — it
		// is this node's standing that is in question, not the peer's.
		return fmt.Errorf("kademlia: %s refused: %s: %w", to.Addr, resp.Err, wire.ErrUnauthorized)
	}
	if resp.Kind == wire.KindError {
		return fmt.Errorf("kademlia: remote error: %s", resp.Err)
	}
	if resp.From.ID != (kadid.ID{}) && resp.From.Addr != "" {
		n.table.Update(resp.From)
	}
	return nil
}

// fanOut runs task(0), …, task(count-1) and returns when all have
// returned. On an inMemory node under a context that cannot end, each
// simnet.Call already runs its handler on the caller and no handler
// waits on a disk, so the tasks run one after another right here; a
// goroutine per task would only add a fresh stack and a park. Elsewhere
// the tasks overlap, the caller running the last.
func (n *Node) fanOut(ctx context.Context, count int, task func(i int)) {
	if n.inMemory && ctx.Done() == nil {
		for i := range count {
			task(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := range count {
		if i == count-1 {
			task(i)
			break
		}
		wg.Add(1)
		go func() { defer wg.Done(); task(i) }()
	}
	wg.Wait()
}

// Ping probes a contact and returns whether it answered before ctx
// ended.
func (n *Node) Ping(ctx context.Context, c wire.Contact) bool {
	var resp wire.Message
	err := n.call(ctx, c, &wire.Message{Kind: wire.KindPing}, &resp)
	return err == nil && resp.Kind == wire.KindPong
}

// Discover pings a bare address and returns the full contact of the
// node answering there — how a joining node learns its bootstrap
// contact from a host:port alone.
func (n *Node) Discover(ctx context.Context, addr string) (wire.Contact, error) {
	var resp wire.Message
	if err := n.call(ctx, wire.Contact{Addr: addr}, &wire.Message{Kind: wire.KindPing}, &resp); err != nil {
		return wire.Contact{}, err
	}
	if resp.From.ID.IsZero() || resp.From.Addr == "" {
		return wire.Contact{}, errors.New("kademlia: peer did not identify itself")
	}
	return resp.From, nil
}

// Bootstrap introduces the node to the overlay through seed contacts:
// it inserts them into the table and performs an iterative lookup of its
// own identifier, which populates the buckets closest to the node.
func (n *Node) Bootstrap(ctx context.Context, seeds []wire.Contact) error {
	for _, s := range seeds {
		if s.ID != n.id {
			n.table.Update(s)
		}
	}
	if n.table.Len() == 0 {
		return ErrNoContacts
	}
	n.IterativeFindNode(ctx, n.id)
	return ctx.Err()
}

// RefreshBucket performs the Kademlia bucket-refresh procedure for one
// bucket index: it looks up a random identifier falling in that bucket.
func (n *Node) RefreshBucket(ctx context.Context, bucket int, seed int64) {
	id := kadid.RandomInBucket(n.id, bucket, newRand(seed))
	n.IterativeFindNode(ctx, id)
}

// Store places entries under key on the k closest nodes to key
// (replication at write time). The writer itself participates when it
// is one of the k closest, so every writer converges on the same
// replica set. The replica writes go through fanOut with the local one
// last: where they overlap, every remote STORE is sent first and the
// local replica commits on the calling goroutine while those are in
// flight, so a durable write waits for one round of commits. Store
// still waits for every target before it returns how many replicas
// acknowledged. When ctx ends mid-operation the in-flight replica RPCs
// are aborted; if the quorum was not reached by then, ctx's error is
// returned with the partial ack count.
//
// The replica set comes from the node's replica-set cache when it holds
// one for key under the routing table's current epoch, and from an
// iterative lookup otherwise. A replica write that fails for any reason
// but BUSY, a policy verdict or the caller's ctx ending drops key's
// entry; otherwise a lookup's set is cached when the walk ended cleanly
// (ctx live, no BUSY, no failed probe in its k-window). Any
// routing-table change (see Table.Epoch) invalidates every entry.
//
// Store runs under the node's block-operation limit (see startBlockOp).
func (n *Node) Store(ctx context.Context, key kadid.ID, entries []wire.Entry) (int, error) {
	ticket, ok := n.startBlockOp()
	if !ok {
		return 0, errShed
	}
	var busy int
	acks, err := n.storeReplicas(ctx, key, entries, &busy)
	n.endBlockOp(ctx, ticket, err, busy)
	return acks, err
}

// startBlockOp admits one block operation under the node's adaptive
// limit (admission.Limit), or reports false when the node already runs
// as many as the limit allows; the caller then fails at once with
// errShed. An admitted operation must end with endBlockOp.
func (n *Node) startBlockOp() (ticket uint64, ok bool) {
	if ticket, ok = n.ops.Acquire(); !ok {
		n.counters.BlockOpsShed.Inc()
	}
	return ticket, ok
}

// endBlockOp ends an operation startBlockOp admitted, which returned
// err after busy of its exchanges were answered BUSY past their
// retries. A failure that met BUSY answers, or whose deadline ran out,
// is overload and cuts the limit; anything else raises it. A success is
// never overload, even one that met BUSY answers: enough replicas
// acknowledged. A deadline can also run out for a caller with a short
// budget or against a dead peer; such a cut stays above what a healthy
// node runs (admission.MinOps), so it refuses nothing.
func (n *Node) endBlockOp(ctx context.Context, ticket uint64, err error, busy int) {
	n.ops.Release(ticket, err != nil && (busy > 0 || errors.Is(ctx.Err(), context.DeadlineExceeded)))
}

// errShed is a block operation's answer when its node already runs as
// many as its limit allows: the node is overloaded, so the operation
// fails at once rather than join the queue into its deadline.
var errShed = fmt.Errorf("kademlia: node at its block-operation limit: %w", wire.ErrBusy)

// storeReplicas is Store's body. It counts into busy the candidates and
// replicas that answered BUSY past their retries.
func (n *Node) storeReplicas(ctx context.Context, key kadid.ID, entries []wire.Entry, busy *int) (int, error) {
	epoch := n.table.Epoch()
	set := n.replicas.get(key, epoch)
	cacheable := false
	if set != nil {
		n.counters.ReplicaSetHits.Inc()
	} else {
		var lerr error
		_, _, set, *busy, cacheable, lerr = n.iterativeLookup(ctx, key, false, 0)
		if lerr != nil {
			return 0, lerr
		}
	}
	// set is the cache's (or about to be): the targets are a copy.
	targets := n.insertSelf(slices.Clone(set), key)
	if len(targets) == 0 {
		return 0, ErrNoContacts
	}
	if i, last := slices.IndexFunc(targets, func(c wire.Contact) bool { return c.ID == n.id }), len(targets)-1; i >= 0 {
		targets[i], targets[last] = targets[last], targets[i]
	}
	// One outcome per target, each written by its own task.
	outcomes := make([]error, len(targets))
	n.fanOut(ctx, len(targets), func(i int) {
		if targets[i].ID == n.id {
			// The local replica applies the same rules the remote ones
			// enforce: a node must not hold entries it would refuse from
			// the network, for a bad signature or because their writer
			// (here, the node itself) is revoked.
			revoked := n.cfg.Revoked != nil && n.cfg.Revoked(n.id)
			if revoked || n.cfg.CAPub != nil && vetEntries(key, entries) != "" {
				outcomes[i] = wire.ErrUnauthorized
			} else {
				outcomes[i] = n.store.Append(ctx, key, entries)
			}
			return
		}
		var resp wire.Message
		err := n.call(ctx, targets[i], &wire.Message{Kind: wire.KindStore, Target: key, Entries: entries}, &resp)
		if err == nil && resp.Kind != wire.KindStoreAck {
			err = errNotAcked
		}
		outcomes[i] = err
	})
	acks, unauth, tooLarge, failed := 0, 0, 0, 0
	for _, err := range outcomes {
		switch {
		case err == nil:
			acks++
			continue
		case errors.Is(err, wire.ErrBusy):
			// Busy is alive, and still a replica: a walk to replace the
			// set would only add load where it is being shed.
			*busy++
			continue
		case errors.Is(err, wire.ErrUnauthorized):
			unauth++
			continue // a policy verdict: any replica set would give it
		case errors.Is(err, simnet.ErrTooLarge):
			tooLarge++
		}
		failed++
	}
	switch {
	case failed == 0 && cacheable && len(set) > 0:
		n.replicas.put(key, set, epoch)
	case failed > 0 && ctx.Err() == nil: // a caller giving up is no evidence
		n.replicas.drop(key)
	}
	if acks < n.cfg.MinStoreAcks {
		if err := ctx.Err(); err != nil {
			return acks, err
		}
	}
	if acks == 0 {
		if unauth > 0 {
			// Every replica that answered gave a policy verdict, not a
			// failure: the write is refused, retrying is pointless.
			return 0, fmt.Errorf("kademlia: %d replica(s) refused store of %s: %w", unauth, key.Short(), wire.ErrUnauthorized)
		}
		if tooLarge > 0 {
			// A size verdict: the block cannot travel in one message, and
			// resending it unchanged never will.
			return 0, fmt.Errorf("kademlia: store of %s to %d replica(s): %w", key.Short(), tooLarge, simnet.ErrTooLarge)
		}
		if *busy > 0 {
			// The replica set is saturated, not gone: surface the typed
			// busy error so upper layers can back off instead of treating
			// the write target as unreachable.
			return 0, fmt.Errorf("kademlia: %d replica(s) rejected store of %s: %w", *busy, key.Short(), wire.ErrBusy)
		}
		return 0, fmt.Errorf("kademlia: no replica acknowledged store of %s", key.Short())
	}
	if acks < n.cfg.MinStoreAcks {
		return acks, fmt.Errorf("kademlia: store of %s reached only %d of %d required replica acks",
			key.Short(), acks, n.cfg.MinStoreAcks)
	}
	return acks, nil
}

// StoreBatch stores every item as Store does. The items must target
// distinct keys; they commute, so they go through fanOut. Every item's
// failure is reported, joined.
func (n *Node) StoreBatch(ctx context.Context, items []BatchItem) error {
	errs := make([]error, len(items))
	n.fanOut(ctx, len(items), func(i int) {
		_, errs[i] = n.Store(ctx, items[i].Key, items[i].Entries)
	})
	return errors.Join(errs...)
}

// insertSelf adds the node's own contact to a distance-sorted contact
// list when it belongs among the k closest to key.
func (n *Node) insertSelf(sorted []wire.Contact, key kadid.ID) []wire.Contact {
	if len(sorted) >= n.cfg.K && !kadid.Closer(n.id, sorted[n.cfg.K-1].ID, key) {
		return sorted
	}
	out := append(sorted, n.Self())
	for i := len(out) - 1; i > 0 && kadid.Closer(out[i].ID, out[i-1].ID, key); i-- {
		out[i], out[i-1] = out[i-1], out[i]
	}
	if len(out) > n.cfg.K {
		out = out[:n.cfg.K]
	}
	return out
}

// FindValue retrieves the block stored under key, asking for at most
// topN entries (0 = all). It performs one iterative lookup and returns
// ErrNotFound if no replica holds the block. When ctx ends before a
// value was assembled, ctx.Err() is returned instead — the caller's
// deadline wins over every internal retry budget.
//
// FindValue runs under the node's block-operation limit, as Store does.
func (n *Node) FindValue(ctx context.Context, key kadid.ID, topN int) ([]wire.Entry, error) {
	ticket, ok := n.startBlockOp()
	if !ok {
		return nil, errShed
	}
	var busy int
	entries, err := n.findValue(ctx, key, topN, &busy)
	n.endBlockOp(ctx, ticket, err, busy)
	return entries, err
}

// findValue is FindValue's body; it counts BUSY candidates into busy
// as storeReplicas does.
func (n *Node) findValue(ctx context.Context, key kadid.ID, topN int, busy *int) ([]wire.Entry, error) {
	entries, found, _, nbusy, _, lerr := n.iterativeLookup(ctx, key, true, topN)
	*busy = nbusy
	if lerr != nil {
		return nil, lerr
	}
	if local, ok := n.store.Get(key, topN); ok {
		// The reader may itself hold a replica; merge it in field-wise,
		// keeping the larger count (counts only grow).
		entries = mergeEntriesMax(entries, local)
		found = true
		if topN > 0 && len(entries) > topN {
			entries = entries[:topN]
		}
	}
	if !found {
		if *busy > 0 {
			// Replicas rejected the read at admission; "not found" would
			// be a lie (the block may exist behind the saturation).
			return nil, fmt.Errorf("kademlia: %d candidate(s) busy during lookup of %s: %w", *busy, key.Short(), wire.ErrBusy)
		}
		return nil, ErrNotFound
	}
	if n.cfg.CAPub != nil {
		kept := entries[:0]
		for _, e := range entries {
			if likir.VerifyEntry(key, e.Field, e.Data, e.Author, e.Sig) == nil {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	return entries, nil
}

// IterativeFindNode locates the k closest live nodes to target, sorted
// by ascending XOR distance. A ctx that ends mid-lookup cuts the walk
// short; the contacts gathered so far are returned best-effort (callers
// that must distinguish a complete window check ctx.Err() themselves).
func (n *Node) IterativeFindNode(ctx context.Context, target kadid.ID) []wire.Contact {
	_, _, closest, _, _, _ := n.iterativeLookup(ctx, target, false, 0)
	return closest
}
