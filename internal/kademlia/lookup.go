package kademlia

import (
	"cmp"
	"context"
	"errors"
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
// Arenas are recycled per node (see Node.arenas) so that steady-state
// lookup rounds allocate no candidate bookkeeping: the candidate slice,
// the distance-ordered index list, the seen map, the table seed buffer
// and the α probe messages all retain their capacity across lookups.
// order holds indices into cands (not pointers), so growing cands never
// invalidates it.
type lookupArena struct {
	cands   []candidate
	order   []int32            // indices into cands, ascending distance to target
	seen    map[kadid.ID]int32 // contact ID -> index into cands
	seedBuf []wire.Contact     // reused by Table.ClosestInto for seeding
	batch   []int32            // this round's query set (indices into cands)
	probes  []probe            // this round's exchanges, one per batch slot
	spans   []TraceSpan        // per-RPC trace spans, cloned out only on capture
}

func (a *lookupArena) reset() {
	a.cands = a.cands[:0]
	a.order = a.order[:0]
	a.batch = a.batch[:0]
	a.spans = a.spans[:0]
	if a.seen == nil {
		a.seen = make(map[kadid.ID]int32)
	} else {
		clear(a.seen)
	}
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
// In value mode (wantValue) the RPC is FIND_VALUE and entries from all
// VALUE responses of the final round are merged field-wise, taking the
// maximum count per field: counts only grow, so the maximum is the most
// complete replica state.
//
// ctx bounds the whole procedure. Cancellation is checked between
// rounds AND aborts the round's in-flight RPC waiters, so a lookup
// stuck on non-answering peers returns as soon as the caller gives up,
// not when the transport's retry timers expire. On early termination
// the ctx error is returned along with the best-effort contact window
// gathered so far; entries are withheld (a partial value is not a
// value).
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
// the routing table.
func (n *Node) iterativeLookup(ctx context.Context, target kadid.ID, wantValue bool, topN int) (entriesOut []wire.Entry, found bool, closestOut []wire.Contact, busy int, clean bool, errOut error) {
	n.counters.Lookups.Inc()
	t0 := time.Now()

	// Tracing decision. Spans are recorded whenever slow capture is
	// enabled, because the slow verdict only exists at the end, when it
	// is too late to start recording.
	tracing := n.cfg.TraceSlow > 0

	arena := n.arenas.get()
	arena.reset()
	defer n.arenas.put(arena)
	if len(arena.probes) < n.cfg.Alpha {
		arena.probes = make([]probe, n.cfg.Alpha)
	}

	round, tried := 0, 0
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

	var merged map[string]wire.Entry
	foundValue := false

	// send runs one probe of the current wave. It is built once per
	// lookup, not per wave or per probe.
	send := func(slot int) {
		p := &arena.probes[slot]
		if wantValue {
			p.req = wire.Message{Kind: wire.KindFindValue, Target: target, TopN: uint32(topN)}
		} else {
			p.req = wire.Message{Kind: wire.KindFindNode, Target: target}
		}
		st := time.Now()
		p.err = n.call(ctx, p.to, &p.req, &p.resp)
		p.start, p.rtt = st.Sub(t0), time.Since(st)
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

		n.fanOut(ctx, len(arena.batch), send)

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
				foundValue = true
				if merged == nil {
					merged = make(map[string]wire.Entry)
				}
				mergeMax(merged, p.resp.Entries)
				continue
			}
			for _, c := range p.resp.Contacts {
				insert(c)
			}
		}
		if foundValue {
			break
		}
	}

	// The k closest responders, in distance order, are the lookup's
	// node-set result (used for replica placement by Store). The result
	// escapes to callers, so it is the one slice a lookup still
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
	if !foundValue {
		return nil, false, closest, busy, clean, nil
	}
	out := sortedEntries(merged)
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out, true, closest, busy, clean, nil
}

// compareEntries is the block order every read returns: descending
// count, ties broken by ascending field name.
func compareEntries(a, b wire.Entry) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return strings.Compare(a.Field, b.Field)
}

// mergeMax folds es into m field-wise, keeping the larger count per
// field: counts only grow, so the maximum is the most complete replica
// state.
func mergeMax(m map[string]wire.Entry, es []wire.Entry) {
	for _, e := range es {
		if cur, ok := m[e.Field]; !ok || e.Count > cur.Count {
			m[e.Field] = e
		}
	}
}

// sortedEntries returns m's entries in block order.
func sortedEntries(m map[string]wire.Entry) []wire.Entry {
	out := make([]wire.Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	slices.SortFunc(out, compareEntries)
	return out
}

// mergeEntriesMax merges two entry lists field-wise, keeping the larger
// count per field, and returns the result in block order.
func mergeEntriesMax(a, b []wire.Entry) []wire.Entry {
	m := make(map[string]wire.Entry, len(a)+len(b))
	mergeMax(m, a)
	mergeMax(m, b)
	return sortedEntries(m)
}
