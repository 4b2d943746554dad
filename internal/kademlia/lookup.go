package kademlia

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// candidate is one contact the lookup knows about and its query state.
// A probe that timed out earns one retry (see iterativeLookup); retried
// records that it was spent.
type candidate struct {
	contact   wire.Contact
	queried   bool
	responded bool
	failed    bool
	retried   bool
}

// probe is one RPC of a lookup wave: the contact asked, the request and
// reply, and how the exchange ended. Each probe writes only its own
// slot, and a wave's slots are consumed before the next wave reuses
// them.
type probe struct {
	to         wire.Contact
	req, resp  wire.Message
	err        error
	start, rtt time.Duration // send offset from the lookup's start, full exchange time (tracing)
}

// lookupArena is the reusable working state of one iterative lookup.
// Arenas are recycled per node (see Node.arenas and putArena) so that
// steady-state lookup rounds allocate no candidate bookkeeping: the
// candidate slice, the distance-ordered index list, the seen map, the
// table seed buffer, the α probe messages and a value read's replies
// all retain their capacity across lookups. order holds indices into
// cands (not pointers), so growing cands never invalidates it.
type lookupArena struct {
	cands   []candidate
	order   []int32            // indices into cands, ascending distance to target
	seen    map[kadid.ID]int32 // contact ID -> index into cands
	seedBuf []wire.Contact     // reused by Table.ClosestInto for seeding
	batch   []int32            // this round's query set (indices into cands)
	probes  []probe            // this round's exchanges, one per batch slot
	spans   []TraceSpan        // per-RPC trace spans, cloned out only on capture

	// Value mode: the replies the answer is built from (views of the
	// final wave's probe replies and of local), the node's own replica,
	// and mergeReplies' duplicate-field set.
	replies [][]wire.Entry
	local   []wire.Entry
	fields  map[string]struct{}

	// The running lookup's parameters, which sendProbe reads; send is
	// sendProbe bound once per arena, so a walk hands fanOut no fresh
	// closure. ctx is dropped when the arena is put back.
	node      *Node
	ctx       context.Context
	target    kadid.ID
	wantValue bool
	topN      int
	t0        time.Time
	send      func(slot int)
}

func (a *lookupArena) reset() {
	a.cands = a.cands[:0]
	a.order = a.order[:0]
	a.batch = a.batch[:0]
	a.spans = a.spans[:0]
	if a.seen == nil {
		a.seen = make(map[kadid.ID]int32, 32) // sized for a walk, so a first lookup does not regrow it
	} else {
		clear(a.seen)
	}
	if a.fields == nil {
		a.fields = make(map[string]struct{})
	}
}

// putArena recycles a. Like putScratch it bounds what an idle arena
// retains: a reply array wider than maxScratchEntries is dropped and the
// used part of the rest cleared, so one unfiltered read of a wide block
// pins neither its arrays nor their entries' payloads, and a duplicate
// set grown past the same bound is dropped too (a map never shrinks).
func (n *Node) putArena(a *lookupArena) {
	for i := range a.probes {
		a.probes[i].resp.Entries = idleEntries(a.probes[i].resp.Entries)
	}
	a.local = idleEntries(a.local)
	clear(a.replies)
	a.replies = a.replies[:0]
	if len(a.fields) > maxScratchEntries {
		a.fields = nil
	}
	a.ctx = nil
	n.arenas.put(a)
}

// iterativeLookup is the Kademlia node-lookup procedure. Starting from
// the k closest known contacts it repeatedly queries, with parallelism
// α, the closest not-yet-queried candidates, merging every NODES
// response into the candidate set. It stops when the k closest known
// contacts have all been queried — or, in value mode, as soon as a
// replica returns the block.
//
// A wave's probes go through fanOut, which runs them one after another
// on the caller when each simulated exchange would run there anyway and
// overlaps them otherwise. Either way the replies are merged after the
// whole wave, in slot order, so the exchanges a lookup sends do not
// depend on the schedule. A candidate whose probe timed out is not
// failed at once: a datagram may just have been lost, so it is re-probed
// once, in a later wave, if it is still inside the k-window then. BUSY,
// too-large and cancelled probes get no second chance.
//
// In value mode (wantValue) the RPC is FIND_VALUE. The VALUE replies of
// the final round, in slot order, and then the node's own replica, if
// it holds one, are the replies the answer is built from (see
// mergeReplies): a copy of the first when they all agree, their
// field-wise maximum otherwise — counts only grow, so the maximum is the
// most complete replica state. A read whose replies disagreed counts in
// Counters.ValueMerges. found reports that some replica held the block;
// the answer is a fresh slice the caller owns. A value read returns no
// contact window: its one caller, FindValue, has no use for one.
//
// ctx bounds the whole procedure. Cancellation is checked between
// rounds AND aborts the round's in-flight RPC waiters, so a lookup
// stuck on non-answering peers returns as soon as the caller gives up,
// not when the transport's retry timers expire. On early termination
// the ctx error is returned, in node mode along with the best-effort
// contact window gathered so far; entries are withheld (a partial value
// is not a value).
//
// clean reports that the walk's window can be trusted beyond this call:
// ctx stayed live, no candidate was BUSY and no probe failed inside the
// k-window. Store caches only clean walks.
//
// The busy return counts candidates whose exchange ultimately failed
// with a BUSY rejection (after the call layer's own retries). The
// lookup routes around busy nodes like failed ones, but the count lets
// callers report "the neighbourhood is overloaded" instead of a
// misleading not-found — and busy candidates are never evicted from
// the routing table. Candidates that answered too large (a block wider
// than a reply can carry) are counted the same way: a value lookup that
// met them and found no value returns an error wrapping
// simnet.ErrTooLarge, not a not-found.
func (n *Node) iterativeLookup(ctx context.Context, target kadid.ID, wantValue bool, topN int) (entriesOut []wire.Entry, found bool, closestOut []wire.Contact, busy int, clean bool, errOut error) {
	n.counters.Lookups.Inc()
	t0 := time.Now()

	// Tracing decision. Spans are recorded whenever slow capture is
	// enabled, because the slow verdict only exists at the end, when it
	// is too late to start recording.
	tracing := n.cfg.TraceSlow > 0

	arena := n.arenas.get()
	arena.reset()
	defer n.putArena(arena)
	if len(arena.probes) < n.cfg.Alpha {
		arena.probes = make([]probe, n.cfg.Alpha)
	}
	if arena.send == nil {
		arena.node, arena.send = n, arena.sendProbe
	}
	arena.ctx, arena.target, arena.wantValue, arena.topN, arena.t0 = ctx, target, wantValue, topN, t0

	round, tried, tooLarge := 0, 0, 0
	defer func() {
		wall := time.Since(t0)
		n.metrics.lookupWall.Observe(wall)
		n.metrics.lookupRounds.ObserveN(int64(round))
		n.metrics.lookupTried.ObserveN(int64(tried))
		if busy > 0 {
			n.counters.LookupBusy.Add(int64(busy))
		}
		if tracing && wall >= n.cfg.TraceSlow {
			n.captureTrace(arena, target, wantValue, t0, wall, round, tried, busy, found)
		}
	}()

	insert := func(c wire.Contact) {
		if c.ID == n.id || c.ID.IsZero() || c.Addr == "" {
			return
		}
		if _, ok := arena.seen[c.ID]; ok {
			return
		}
		idx := int32(len(arena.cands))
		arena.cands = append(arena.cands, candidate{contact: c})
		arena.seen[c.ID] = idx
		order := append(arena.order, idx)
		for i := len(order) - 1; i > 0 && kadid.Closer(arena.cands[order[i]].contact.ID, arena.cands[order[i-1]].contact.ID, target); i-- {
			order[i], order[i-1] = order[i-1], order[i]
		}
		arena.order = order
	}

	// Seed with a deeper slice of the table than the k-window needs:
	// when an entire near-key neighbourhood has crashed, the extra
	// candidates are what lets the lookup route around it.
	arena.seedBuf = n.table.ClosestInto(target, 3*n.cfg.K, arena.seedBuf)
	for _, c := range arena.seedBuf {
		insert(c)
	}

	for ctx.Err() == nil {
		// Pick the α closest unqueried candidates among the k closest
		// that have not failed: dead nodes must not occupy the window,
		// or a crashed replica set would mask the live nodes behind it.
		arena.batch = arena.batch[:0]
		inspected := 0
		for _, idx := range arena.order {
			cd := &arena.cands[idx]
			if cd.failed {
				continue
			}
			if inspected >= n.cfg.K {
				break
			}
			inspected++
			if !cd.queried {
				cd.queried = true
				arena.probes[len(arena.batch)].to = cd.contact
				arena.batch = append(arena.batch, idx)
				if len(arena.batch) >= n.cfg.Alpha {
					break
				}
			}
		}
		if len(arena.batch) == 0 {
			break
		}
		n.counters.LookupRounds.Inc()
		round++
		tried += len(arena.batch)

		n.fanOut(ctx, len(arena.batch), arena.send)

		// Merge in slot order; insert may grow cands, so index it afresh.
		for slot, idx := range arena.batch {
			p := &arena.probes[slot]
			if tracing {
				arena.spans = append(arena.spans, TraceSpan{
					Round:   round,
					Peer:    p.to,
					Kind:    lookupKind(wantValue),
					Start:   p.start,
					RTT:     p.rtt,
					Verdict: spanVerdict(ctx, p),
				})
			}
			if p.err != nil {
				if errors.Is(p.err, wire.ErrBusy) {
					busy++
				} else if errors.Is(p.err, simnet.ErrTooLarge) {
					tooLarge++
				}
				// A cancelled exchange says nothing about the peer; only
				// a genuinely failed one marks the candidate dead. A busy
				// candidate is also marked failed — the lookup routes
				// around it this round — but the distinction survives in
				// the busy count and the peer stays in the table. A first
				// timeout only un-queries the candidate (see above), so one
				// lost datagram does not move the replica set off a live
				// node.
				if cd := &arena.cands[idx]; ctx.Err() == nil {
					if !cd.retried && errors.Is(p.err, simnet.ErrTimeout) {
						cd.retried, cd.queried = true, false
					} else {
						cd.failed = true
					}
				}
				continue
			}
			arena.cands[idx].responded = true
			if p.resp.Kind == wire.KindValue {
				arena.replies = append(arena.replies, p.resp.Entries)
				continue
			}
			for _, c := range p.resp.Contacts {
				insert(c)
			}
		}
		if len(arena.replies) > 0 {
			break
		}
	}

	if wantValue {
		if err := ctx.Err(); err != nil {
			return nil, false, nil, busy, false, err
		}
		var ok bool
		if arena.local, ok = n.store.getInto(arena.local[:0], target, topN); ok {
			arena.replies = append(arena.replies, arena.local)
		}
		if len(arena.replies) == 0 {
			if tooLarge > 0 {
				// Replicas hold the block but cannot send it: "not found"
				// would be a lie, and the size verdict is what happened.
				return nil, false, nil, busy, false, fmt.Errorf("kademlia: %d candidate(s) answered too large during lookup of %s: %w", tooLarge, target.Short(), simnet.ErrTooLarge)
			}
			return nil, false, nil, busy, false, nil
		}
		out, merged := mergeReplies(arena.replies, topN, arena.fields)
		if merged {
			n.counters.ValueMerges.Inc()
		}
		return out, true, nil, busy, false, nil
	}

	// The k closest responders, in distance order, are the lookup's
	// node-set result (used for replica placement by Store). The result
	// escapes to callers, so it is the one slice a node lookup still
	// allocates.
	closest := make([]wire.Contact, 0, n.cfg.K)
	clean = busy == 0
	for _, idx := range arena.order {
		if cd := &arena.cands[idx]; cd.failed {
			clean = false
		} else if cd.responded {
			closest = append(closest, cd.contact)
			if len(closest) >= n.cfg.K {
				break
			}
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, false, closest, busy, false, err
	}
	return nil, false, closest, busy, clean, nil
}

// sendProbe runs the probe in slot of the current wave.
func (a *lookupArena) sendProbe(slot int) {
	p := &a.probes[slot]
	if a.wantValue {
		p.req = wire.Message{Kind: wire.KindFindValue, Target: a.target, TopN: uint32(a.topN)}
	} else {
		p.req = wire.Message{Kind: wire.KindFindNode, Target: a.target}
	}
	st := time.Now()
	p.err = a.node.call(a.ctx, p.to, &p.req, &p.resp)
	p.start, p.rtt = st.Sub(a.t0), time.Since(st)
}

// compareEntries is the block order every read returns: descending
// count, ties broken by ascending field name.
func compareEntries(a, b wire.Entry) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return strings.Compare(a.Field, b.Field)
}

// mergeReplies builds a value read's answer from the replies of the
// block's replicas, truncated to topN when topN > 0. The answer is a
// fresh slice: it shares no array with any reply.
//
// Replicas of a block almost always agree. When every reply holds the
// same fields with the same counts at the same indices as the first,
// and the first is strictly in block order with no field twice, the
// answer is a copy of the first. Otherwise the replies are max-merged:
// per field the entry with the largest count, the earliest reply
// winning a tie, in block order. Both give the same entries in the same
// order whenever the first applies. merged reports that the max-merge
// ran. fields is scratch for the duplicate check and is left empty.
func mergeReplies(replies [][]wire.Entry, topN int, fields map[string]struct{}) (out []wire.Entry, merged bool) {
	first := replies[0]
	if agree(replies) && inBlockOrder(first, fields) {
		n := len(first)
		if topN > 0 && n > topN {
			n = topN
		}
		out = make([]wire.Entry, n)
		copy(out, first)
		return out, false
	}
	m := make(map[string]wire.Entry)
	for _, r := range replies {
		for _, e := range r {
			if cur, ok := m[e.Field]; !ok || e.Count > cur.Count {
				m[e.Field] = e
			}
		}
	}
	out = slices.SortedFunc(maps.Values(m), compareEntries)
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out, true
}

// agree reports whether every reply holds the first's fields with the
// first's counts, index by index.
func agree(replies [][]wire.Entry) bool {
	first := replies[0]
	for _, r := range replies[1:] {
		if len(r) != len(first) {
			return false
		}
		for i := range r {
			if r[i].Count != first[i].Count || r[i].Field != first[i].Field {
				return false
			}
		}
	}
	return true
}

// inBlockOrder reports whether es is strictly in block order — count
// descending, then field ascending — with no field twice. seen is
// scratch and is left empty.
func inBlockOrder(es []wire.Entry, seen map[string]struct{}) bool {
	ok := true
	for i := range es {
		if i > 0 && compareEntries(es[i-1], es[i]) >= 0 {
			ok = false
			break
		}
		if _, dup := seen[es[i].Field]; dup {
			ok = false
			break
		}
		seen[es[i].Field] = struct{}{}
	}
	clear(seen)
	return ok
}
