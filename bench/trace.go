package main

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dharma/internal/dht"
	"dharma/internal/kadid"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// Tracing is done from the benchmark's own files, around the calls into
// each layer: a dht.Store wrapper under the engine (block ops), a
// simnet.Transport wrapper under each node (RPCs) and, on simnet, a
// simnet.Handler wrapper in front of each node (served requests). The
// layers already pass one ctx from the facade down to the handler, so a
// span finds its parent in the ctx it was called with.

type spanKind uint8

const (
	spanOp      spanKind = iota // one facade operation
	spanGet                     // block op: dht.Store.Get
	spanAppend                  // block op(s): dht.Store.Append / AppendBatch
	spanRPC                     // simnet.Transport.Call
	spanHandler                 // simnet.Handler.HandleRPC
)

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; parent is an index into the span buffer (-1 for an op).
type span struct {
	start, end int64
	parent     int32
	op         int32 // the op span this belongs to: spans of one operation share it
	kind       spanKind
	sub        uint8  // spanOp: opKind; spanRPC/spanHandler: wire.Kind of the request
	node       uint16 // spanHandler: index of the serving node
	n          int32  // spanOp: navigation steps; block ops: Table-I lookups covered
	req, resp  int32  // spanRPC: payload bytes each way
}

func (s *span) dur() int64 { return s.end - s.start }

// spanRef is what travels in the ctx: where a child finds its parent.
type spanRef struct{ idx, op int32 }

type spanCtxKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, r)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanCtxKey{}).(spanRef)
	return r, ok
}

// maxCapturedPayloads bounds how many request/response payloads the
// transport wrapper copies aside for the codec probe.
const maxCapturedPayloads = 4096

// tracer owns the preallocated span buffer. Slots are handed out by an
// atomic counter, each slot is written by the one goroutine that opened
// it, and the buffer is read only after every traced op has returned.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64

	capMu    sync.Mutex
	capFull  atomic.Bool
	captured [][]byte
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// used is how many spans have been recorded.
func (t *tracer) used() int {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return n
}

// begin opens a span. A full buffer drops it (idx -1); the run loop
// stops tracing well before that, so a drop means a sizing bug and is
// reported.
func (t *tracer) begin(kind spanKind, sub uint8, parent spanRef) spanRef {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return spanRef{idx: -1, op: parent.op}
	}
	s := &t.spans[i]
	*s = span{parent: parent.idx, op: parent.op, kind: kind, sub: sub}
	if kind == spanOp {
		s.parent, s.op = -1, int32(i)
	}
	s.start = t.now()
	return spanRef{idx: int32(i), op: s.op}
}

// end closes a span and returns it for the caller to annotate.
func (t *tracer) end(r spanRef) *span {
	if r.idx < 0 {
		return &span{}
	}
	s := &t.spans[r.idx]
	s.end = t.now()
	return s
}

// capture copies payloads aside for the codec probe until the quota is
// full (the buffers they arrive in are pooled and reused).
func (t *tracer) capture(payloads ...[]byte) {
	if t.capFull.Load() {
		return
	}
	t.capMu.Lock()
	defer t.capMu.Unlock()
	for _, p := range payloads {
		if len(t.captured) >= maxCapturedPayloads {
			t.capFull.Store(true)
			return
		}
		if len(p) > 0 {
			t.captured = append(t.captured, append([]byte(nil), p...))
		}
	}
}

// kindOffset is where the codec puts a message's Kind, found by
// encoding two messages that differ only in Kind — the benchmark reads
// the request kind off the payload without paying a decode inside a
// span, and without hard-coding the frame layout.
var kindOffset = func() int {
	a := wire.Encode(&wire.Message{Kind: wire.KindPing})
	b := wire.Encode(&wire.Message{Kind: wire.KindStore})
	for i := range a {
		if i < len(b) && a[i] != b[i] {
			return i
		}
	}
	return -1
}()

func kindOf(payload []byte) uint8 {
	if kindOffset < 0 || kindOffset >= len(payload) {
		return 0
	}
	return payload[kindOffset]
}

// tracedStore records one span per block operation. With fanout set
// (overlay-backed stores) a batch is issued item by item, concurrently,
// exactly as dht.Overlay.AppendBatch does, so that each block op gets
// its own span and its RPCs can be told apart; without it (the
// in-process store, which applies a batch in one pass) the batch is one
// span covering len(items) block ops.
type tracedStore struct {
	inner  dht.Store
	tr     *tracer
	fanout bool
}

func (s *tracedStore) Get(ctx context.Context, key kadid.ID, topN int) ([]wire.Entry, error) {
	parent, ok := spanFrom(ctx)
	if !ok {
		return s.inner.Get(ctx, key, topN)
	}
	ref := s.tr.begin(spanGet, 0, parent)
	es, err := s.inner.Get(withSpan(ctx, ref), key, topN)
	s.tr.end(ref).n = 1
	return es, err
}

func (s *tracedStore) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	parent, ok := spanFrom(ctx)
	if !ok {
		return s.inner.Append(ctx, key, entries)
	}
	ref := s.tr.begin(spanAppend, 0, parent)
	err := s.inner.Append(withSpan(ctx, ref), key, entries)
	s.tr.end(ref).n = 1
	return err
}

func (s *tracedStore) AppendBatch(ctx context.Context, items []dht.BatchItem) error {
	parent, ok := spanFrom(ctx)
	if !ok {
		return s.inner.AppendBatch(ctx, items)
	}
	if !s.fanout {
		ref := s.tr.begin(spanAppend, 0, parent)
		err := s.inner.AppendBatch(withSpan(ctx, ref), items)
		s.tr.end(ref).n = int32(len(items))
		return err
	}
	if len(items) == 1 {
		return s.Append(ctx, items[0].Key, items[0].Entries)
	}
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it dht.BatchItem) {
			defer wg.Done()
			errs[i] = s.Append(ctx, it.Key, it.Entries)
		}(i, it)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// tracedTransport records one span per outbound RPC and hands the
// span down to the handler through ctx.
type tracedTransport struct {
	inner simnet.Transport
	tr    *tracer
}

func (t *tracedTransport) Call(ctx context.Context, to simnet.Addr, payload []byte) ([]byte, error) {
	parent, ok := spanFrom(ctx)
	if !ok {
		return t.inner.Call(ctx, to, payload)
	}
	ref := t.tr.begin(spanRPC, kindOf(payload), parent)
	resp, err := t.inner.Call(withSpan(ctx, ref), to, payload)
	s := t.tr.end(ref)
	s.req, s.resp = int32(len(payload)), int32(len(resp))
	t.tr.capture(payload, resp)
	return resp, err
}

func (t *tracedTransport) Addr() simnet.Addr { return t.inner.Addr() }
func (t *tracedTransport) Close() error      { return t.inner.Close() }

// tracedHandler records one span per served request (simnet only: the
// UDP transport takes its handler at construction).
type tracedHandler struct {
	inner simnet.Handler
	tr    *tracer
	node  uint16
}

func (h *tracedHandler) HandleRPC(ctx context.Context, from simnet.Addr, payload []byte) ([]byte, error) {
	parent, ok := spanFrom(ctx)
	if !ok {
		return h.inner.HandleRPC(ctx, from, payload)
	}
	ref := h.tr.begin(spanHandler, kindOf(payload), parent)
	out, err := h.inner.HandleRPC(ctx, from, payload)
	h.tr.end(ref).node = h.node
	return out, err
}

// ---- span arithmetic ----

type interval struct{ lo, hi int64 }

// mergeIntervals sorts ivs and merges the ones that overlap, returning
// the disjoint groups in order. Touching intervals (hi == next lo) do
// not overlap and stay apart. ivs is reordered.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo < last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children
// cover: children that run in parallel (a Tag's reverse-arc updates, a
// lookup's α probes) are counted once, by the union of their intervals
// clipped to the parent.
func selfTime(lo, hi int64, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.lo < lo {
			c.lo = lo
		}
		if c.hi > hi {
			c.hi = hi
		}
		if c.hi > c.lo {
			clipped = append(clipped, c)
		}
	}
	covered := int64(0)
	for _, iv := range mergeIntervals(clipped) {
		covered += iv.hi - iv.lo
	}
	return hi - lo - covered
}

// waves is the number of maximal groups of overlapping child spans: how
// many times the parent had to wait for a whole set of parallel calls
// to finish before issuing the next. For a round-synchronous lookup it
// is the round count.
func waves(children []interval) int {
	return len(mergeIntervals(append([]interval(nil), children...)))
}
