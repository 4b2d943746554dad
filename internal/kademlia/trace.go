package kademlia

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// Hop-level lookup tracing. Every iterative lookup records one
// TraceSpan per RPC into its pooled arena — alloc-free in steady state,
// so the spans exist even for lookups nobody decided to trace in
// advance. At the end of the lookup the spans are *captured* (cloned
// out of the arena into a LookupTrace and pushed onto the node's ring)
// when the lookup came in slower than Config.TraceSlow: "why was this
// navigate slow" is only answerable if the evidence was being recorded
// before anyone knew the op would be slow.

// Tracing defaults: capture lookups slower than 250ms.
const (
	DefaultTraceSlow = 250 * time.Millisecond

	// traceRingCap bounds the per-node ring of retained traces.
	traceRingCap = 64
)

// TraceSpan is one RPC of a traced lookup: which α-wave it belonged
// to, which peer it went to, and how the exchange ended.
type TraceSpan struct {
	Round   int           // α-wave number (1-based)
	Peer    wire.Contact  // who was queried
	Kind    wire.Kind     // FIND_NODE or FIND_VALUE
	Start   time.Duration // offset from the lookup's start
	RTT     time.Duration // full exchange time, including busy retries
	Verdict string        // "ok", "value", "busy", "timeout", "cancel", "error"
}

// Span verdicts.
const (
	VerdictOK      = "ok"      // NODES answer
	VerdictValue   = "value"   // VALUE answer
	VerdictBusy    = "busy"    // rejected by admission after retries
	VerdictTimeout = "timeout" // no answer: lost, dead or partitioned peer, or deadline
	VerdictCancel  = "cancel"  // the caller gave up mid-exchange
	VerdictError   = "error"   // remote error or other transport failure
)

// LookupTrace is the assembled hop-by-hop timeline of one lookup.
type LookupTrace struct {
	TraceID uint64
	Target  kadid.ID
	Value   bool // FIND_VALUE lookup (vs FIND_NODE)
	Start   time.Time
	Wall    time.Duration
	Rounds  int
	Tried   int // candidates queried
	Busy    int // candidates that stayed BUSY after retries
	Found   bool
	Spans   []TraceSpan
}

// traceRing retains the last traceRingCap captured traces.
type traceRing struct {
	mu   sync.Mutex
	buf  [traceRingCap]*LookupTrace
	next int
	n    int
}

func (r *traceRing) push(t *LookupTrace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % traceRingCap
	if r.n < traceRingCap {
		r.n++
	}
	r.mu.Unlock()
}

// recent returns the retained traces, newest first.
func (r *traceRing) recent() []*LookupTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*LookupTrace, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+traceRingCap)%traceRingCap])
	}
	return out
}

// lookupKind names the RPC kind a lookup's queries use.
func lookupKind(wantValue bool) wire.Kind {
	if wantValue {
		return wire.KindFindValue
	}
	return wire.KindFindNode
}

// spanVerdict classifies how one lookup RPC ended.
func spanVerdict(ctx context.Context, p *probe) string {
	switch {
	case p.err == nil && p.resp.Kind == wire.KindValue:
		return VerdictValue
	case p.err == nil:
		return VerdictOK
	case errors.Is(p.err, wire.ErrBusy):
		return VerdictBusy
	case errors.Is(p.err, simnet.ErrTimeout), errors.Is(p.err, context.DeadlineExceeded):
		return VerdictTimeout
	case ctx.Err() != nil:
		return VerdictCancel
	default:
		return VerdictError
	}
}

// RecentTraces returns the node's retained lookup traces, newest
// first — what the ops endpoint serves under /debug/traces.
func (n *Node) RecentTraces() []*LookupTrace {
	return n.traces.recent()
}

// capture clones the arena's spans into a retained LookupTrace, pushes
// it onto the ring, and notifies Config.OnTrace.
func (n *Node) captureTrace(a *lookupArena, target kadid.ID, wantValue bool,
	start time.Time, wall time.Duration, rounds, tried, busy int, found bool) {
	traceID := binary.BigEndian.Uint64(n.id[:8]) ^ n.traceSeq.Add(1)
	if traceID == 0 {
		traceID = 1
	}
	t := &LookupTrace{
		TraceID: traceID,
		Target:  target,
		Value:   wantValue,
		Start:   start,
		Wall:    wall,
		Rounds:  rounds,
		Tried:   tried,
		Busy:    busy,
		Found:   found,
		Spans:   append([]TraceSpan(nil), a.spans...),
	}
	n.traces.push(t)
	n.counters.TracesCaptured.Inc()
	if n.cfg.OnTrace != nil {
		n.cfg.OnTrace(t)
	}
}
