// Package chaos provides the availability invariant DHARMA's churn
// tolerance is judged against: an acknowledged write must stay readable
// once the repair machinery (anti-entropy rounds) has run, no matter
// which k-1 replica holders crashed in between.
//
// The package has four parts. A Ledger records, per block key and
// field, the durable floor every acknowledged write guarantees. A
// Recording store decorator wraps any dht.Store and feeds the ledger
// exactly when the underlying store acknowledges. A Churner crashes,
// removes, revives and adds cluster members while a workload runs.
// AntiEntropyAndCheck runs repair rounds over a cluster's live members
// and then verifies every ledger entry through a real overlay read.
//
// The floor is deliberately the paper-consistent one, not a sum.
// DHARMA's block counts are approximate by design: increments applied
// to disjoint replica subsets during a partition are reconciled by
// max-merge to the larger side rather than added (see
// kademlia.Store.mergeLocked). What an acknowledged Append(field, Count=c)
// does guarantee is that at least one replica applied it, leaving that
// replica's count ≥ c; counts are monotone and every repair path
// max-merges, so the block must forever contain the field with count
// ≥ c. An entry created through Approximation B's conditional create
// (Init > 0) guarantees only min(Init, Count) — the storage node takes
// one branch or the other — and a data-only write (Count = 0)
// guarantees presence alone.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dharma/internal/dht"
	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// Ledger tracks the durable floor of every acknowledged write.
type Ledger struct {
	mu    sync.Mutex
	acked map[kadid.ID]map[string]uint64
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{acked: make(map[kadid.ID]map[string]uint64)}
}

// floor is the count an acknowledged append of e guarantees survives.
func floor(e *wire.Entry) uint64 {
	f := e.Count
	if e.Init > 0 && e.Init < f {
		f = e.Init
	}
	return f
}

// Record notes an acknowledged append of entries under key. Call it
// only after the store acknowledged the write; the Recording decorator
// does this automatically.
func (l *Ledger) Record(key kadid.ID, entries []wire.Entry) {
	if len(entries) == 0 {
		return // empty appends materialize nothing, so they promise nothing
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fields, ok := l.acked[key]
	if !ok {
		fields = make(map[string]uint64, len(entries))
		l.acked[key] = fields
	}
	for i := range entries {
		e := &entries[i]
		// A presence-only write (floor 0) still materializes the field:
		// the block must contain it after repair, whatever its count.
		if f := floor(e); f >= fields[e.Field] {
			fields[e.Field] = f
		}
	}
}

// Keys returns every block key with at least one acknowledged write.
func (l *Ledger) Keys() []kadid.ID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]kadid.ID, 0, len(l.acked))
	for k := range l.acked {
		out = append(out, k)
	}
	return out
}

// Blocks returns how many distinct blocks carry acknowledged writes;
// Fields the total number of (block, field) obligations.
func (l *Ledger) Blocks() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acked)
}

// Fields returns the total number of acknowledged (block, field) pairs.
func (l *Ledger) Fields() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, fields := range l.acked {
		n += len(fields)
	}
	return n
}

// Violation is one acknowledged write the post-repair overlay lost.
type Violation struct {
	Key     kadid.ID
	Field   string // empty when the whole block was unreadable
	Want    uint64 // the durable floor the ledger recorded
	Got     uint64 // the count actually read (0 when missing)
	Missing bool   // the field (or block) was absent entirely
	Err     error  // the read error, when the block was unreadable
}

// String renders a violation for reports and test failures.
func (v Violation) String() string {
	switch {
	case v.Err != nil:
		return fmt.Sprintf("block %s unreadable: %v", v.Key.Short(), v.Err)
	case v.Missing:
		return fmt.Sprintf("block %s lost field %q (acked floor %d)", v.Key.Short(), v.Field, v.Want)
	default:
		return fmt.Sprintf("block %s field %q count %d below acked floor %d", v.Key.Short(), v.Field, v.Got, v.Want)
	}
}

// Check reads every recorded block through get (an unfiltered read —
// kademlia.Node.FindValue, dht.Store.Get with topN 0, ...) and returns
// one Violation per lost obligation, ordered deterministically. ctx is
// handed to every read; a cancelled check surfaces the remaining
// obligations as unreadable.
func (l *Ledger) Check(ctx context.Context, get func(context.Context, kadid.ID) ([]wire.Entry, error)) []Violation {
	l.mu.Lock()
	type obligation struct {
		key    kadid.ID
		fields map[string]uint64
	}
	obligations := make([]obligation, 0, len(l.acked))
	for k, fields := range l.acked {
		copied := make(map[string]uint64, len(fields))
		for f, c := range fields {
			copied[f] = c
		}
		obligations = append(obligations, obligation{key: k, fields: copied})
	}
	l.mu.Unlock()
	sort.Slice(obligations, func(i, j int) bool {
		return bytes.Compare(obligations[i].key[:], obligations[j].key[:]) < 0
	})

	var out []Violation
	for _, ob := range obligations {
		entries, err := get(ctx, ob.key)
		if err != nil {
			out = append(out, Violation{Key: ob.key, Missing: true, Err: err})
			continue
		}
		got := make(map[string]uint64, len(entries))
		for _, e := range entries {
			got[e.Field] = e.Count
		}
		fields := make([]string, 0, len(ob.fields))
		for f := range ob.fields {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			want := ob.fields[f]
			cur, present := got[f]
			switch {
			case !present:
				out = append(out, Violation{Key: ob.key, Field: f, Want: want, Missing: true})
			case cur < want:
				out = append(out, Violation{Key: ob.key, Field: f, Want: want, Got: cur})
			}
		}
	}
	return out
}

// Recording decorates a dht.Store so every acknowledged append lands in
// the ledger. A batch that returns an error records nothing: the caller
// saw a failure, so none of its items count as acknowledged (the
// conservative side — a write that did land but was reported failed can
// only make the check easier to pass, never produce a false loss).
type Recording struct {
	inner  dht.Store
	ledger *Ledger
	writes atomic.Int64
}

// NewRecording wraps inner so acknowledged appends are recorded in l.
func NewRecording(inner dht.Store, l *Ledger) *Recording {
	return &Recording{inner: inner, ledger: l}
}

// Append implements dht.Store.
func (r *Recording) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	if err := r.inner.Append(ctx, key, entries); err != nil {
		return err
	}
	r.writes.Add(1)
	r.ledger.Record(key, entries)
	return nil
}

// AppendBatch implements dht.Store.
func (r *Recording) AppendBatch(ctx context.Context, items []dht.BatchItem) error {
	if err := r.inner.AppendBatch(ctx, items); err != nil {
		return err
	}
	r.writes.Add(int64(len(items)))
	for _, it := range items {
		r.ledger.Record(it.Key, it.Entries)
	}
	return nil
}

// Get implements dht.Store.
func (r *Recording) Get(ctx context.Context, key kadid.ID, topN int) ([]wire.Entry, error) {
	return r.inner.Get(ctx, key, topN)
}

// Writes returns how many acknowledged append operations were recorded.
func (r *Recording) Writes() int64 { return r.writes.Load() }

var _ dht.Store = (*Recording)(nil)

// AntiEntropyAndCheck runs `rounds` anti-entropy passes — every live
// cluster member running AntiEntropyOnce(ctx, every) — and then verifies
// the ledger by reading each recorded block, unfiltered, through the
// cluster's first member. every = 1 is the forced sweep: every block is
// summary-synced with its current k closest nodes each round. A larger
// every lets the per-block timers skip settled and recently written
// blocks, so a cluster it heals proves the timer-driven path alone
// restores every acknowledged write. It returns the surviving
// violations: an empty slice is the churn invariant holding.
func AntiEntropyAndCheck(ctx context.Context, cl *kademlia.Cluster, l *Ledger, rounds, every int) []Violation {
	if rounds <= 0 {
		rounds = 2
	}
	for r := 0; r < rounds; r++ {
		for _, n := range cl.Snapshot() {
			n.AntiEntropyOnce(ctx, every)
		}
	}
	reader := cl.NodeAt(0)
	if reader == nil {
		return []Violation{{Err: fmt.Errorf("chaos: cluster has no members left to read from")}}
	}
	return l.Check(ctx, func(ctx context.Context, key kadid.ID) ([]wire.Entry, error) {
		return reader.FindValue(ctx, key, 0)
	})
}
