// Package wire defines the overlay RPC message vocabulary shared by the
// Kademlia protocol logic (internal/kademlia), the storage layer
// (internal/dht) and both transports (internal/simnet in-memory, and the
// UDP transport in this package). Messages are encoded with a compact
// hand-rolled binary codec so that payload sizes — and therefore the
// UDP-MTU pressure the paper discusses — are realistic.
//
// The UDP transport serves each request through simnet.Server, the one
// serving chain both transports share: the one place where a served
// request is admitted and its outcome judged (busy, too large, or
// silence). The transport adds only its session stage, and carries the
// chain's verdict back to the caller as a refused frame.
package wire

import (
	"dharma/internal/kadid"
)

// Kind discriminates the RPC message types of the overlay protocol.
type Kind uint8

// Protocol message kinds. The first four RPCs are Kademlia's; STORE is
// extended with append ("one-bit token") semantics and FIND_VALUE with
// index-side filtering, per DHARMA's requirements.
const (
	KindPing Kind = iota + 1
	KindPong
	KindStore        // append entries to the block stored under Target
	KindStoreAck     // acknowledgement for KindStore and KindReplicate
	KindFindNode     // request the k closest contacts to Target
	KindFindValue    // request the block under Target (or closest contacts)
	KindNodes        // response carrying contacts
	KindValue        // response carrying block entries
	KindError        // response carrying an error string
	KindReplicate    // max-merge a replica of the block under Target
	KindBusy         // reserved: no message carries it; BUSY is a transport refusal (ErrBusy), and the number stays so later kinds keep their codec-v4 values
	KindSummary      // anti-entropy: compare block summaries before moving data
	KindSummaryReply // response carrying the receiver's summary (+ counts on mismatch)
	KindUnauthorized // identity rejection: sender or entries failed Likir verification
)

// String returns a human-readable name for the message kind.
func (k Kind) String() string {
	switch k {
	case KindPing:
		return "PING"
	case KindPong:
		return "PONG"
	case KindStore:
		return "STORE"
	case KindStoreAck:
		return "STORE_ACK"
	case KindFindNode:
		return "FIND_NODE"
	case KindFindValue:
		return "FIND_VALUE"
	case KindNodes:
		return "NODES"
	case KindValue:
		return "VALUE"
	case KindError:
		return "ERROR"
	case KindReplicate:
		return "REPLICATE"
	case KindBusy:
		return "BUSY"
	case KindSummary:
		return "SUMMARY"
	case KindSummaryReply:
		return "SUMMARY_REPLY"
	case KindUnauthorized:
		return "UNAUTHORIZED"
	default:
		return "UNKNOWN"
	}
}

// Contact is the (identifier, address) pair by which overlay nodes refer
// to each other.
type Contact struct {
	ID   kadid.ID
	Addr string
}

// Entry is one element of a stored block. DHARMA blocks are weighted
// adjacency lists: Field names the neighbour (a tag or resource name),
// Count is the accumulated arc weight (the number of "+1 tokens"
// appended), and Data carries optional opaque bytes (the URI for type-4
// blocks). Author and Sig are filled by the Likir identity layer; they
// authenticate (block key, Field, Data) and are empty when the overlay
// runs without identities.
//
// Init implements DHARMA's Approximation B: when Init > 0 and the field
// does not yet exist in the block, the storage node creates it with
// weight Init instead of adding Count. The conditional is evaluated at
// the storing node, so the writer needs no extra lookup to learn
// whether the arc exists, and two writers racing on the same new arc
// produce a bounded 2·Init instead of 2·u(τ,r).
type Entry struct {
	Field  string
	Count  uint64
	Init   uint64 // create-value when the field is absent (0 = plain add)
	Data   []byte
	Author []byte // Ed25519 public key of the writer (optional)
	Sig    []byte // signature over the entry (optional)
}

// Clone returns a deep copy of the entry.
func (e Entry) Clone() Entry {
	c := e
	if e.Data != nil {
		c.Data = append([]byte(nil), e.Data...)
	}
	if e.Author != nil {
		c.Author = append([]byte(nil), e.Author...)
	}
	if e.Sig != nil {
		c.Sig = append([]byte(nil), e.Sig...)
	}
	return c
}

// CloneEntries returns a deep copy of an entry list (nil stays nil).
// Callers that hand entries across an ownership boundary — a cache
// storing what it read, a store returning internal state — clone so
// that neither side can mutate the other's copy.
func CloneEntries(es []Entry) []Entry {
	if es == nil {
		return nil
	}
	out := make([]Entry, len(es))
	for i := range es {
		out[i] = es[i].Clone()
	}
	return out
}

// BlockSummary is the fixed-size digest replicas exchange before any
// block data moves. Fields is the number of fields in the block and
// Digest is an order-independent XOR fold of a 64-bit hash of every
// (field, count) pair, so two replicas whose digests match hold the
// same weight map with false-positive probability ~2^-64 per
// comparison. A block that does not exist summarises to the zero value.
type BlockSummary struct {
	Fields uint64
	Digest uint64
}

// Message is a single overlay RPC request or response.
//
// TraceID, Hop, Cred and From.Addr are codec fields the overlay no
// longer sets: traces are assembled on the client (kademlia.LookupTrace)
// and the transport proves the sender and reports its address. They
// stay in the encoding because write-ahead-log payloads use this codec,
// so dropping them would change its version (v4). All four are empty.
//
// Deadline is the deadline-propagation field: the caller's remaining
// budget in microseconds at send time (0 = unbounded). A server installs
// it as a handler context deadline and sheds requests whose budget
// already ran out — the caller is gone, answering is pure waste.
type Message struct {
	Kind     Kind
	From     Contact  // the sender's ID; Addr unused (see above)
	Target   kadid.ID // lookup target or block key
	TopN     uint32   // FIND_VALUE: return at most this many entries (0 = all)
	TraceID  uint64   // unused; kept for the codec (see above)
	Hop      uint32   // unused; kept for the codec (see above)
	Deadline uint64   // caller's remaining budget in µs (0 = none)
	Summary  BlockSummary
	Contacts []Contact
	Entries  []Entry
	Err      string
	Cred     []byte // unused; always empty, kept for the codec (see above)
}
