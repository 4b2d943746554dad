// Package dht exposes the block-store abstraction DHARMA is written
// against. The paper assumes "retrieving or modifying the content of a
// block on the DHT costs only one overlay lookup operation", provided
// the overlay offers PUT and GET primitives; this package provides those
// primitives and the lookup accounting that Table I is stated in.
//
// Two implementations are provided:
//
//   - Overlay: backed by a live Kademlia node (internal/kademlia); every
//     operation performs one iterative overlay lookup plus the replica
//     RPCs, exactly like a deployment.
//   - Local: backed by an in-process block store with identical
//     semantics; used to run the paper's large-scale graph simulations
//     without paying network costs that the experiment does not measure.
//
// Both count operations, so experiments can assert the costs of Table I
// regardless of the backing.
package dht

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/wire"
)

// ErrNotFound is returned by Get when no block exists under a key.
var ErrNotFound = errors.New("dht: block not found")

// BatchItem is one (key, entries) pair of a multi-block append; it is
// the storage layer's batch unit re-exported for engine use.
type BatchItem = kademlia.BatchItem

// Store is the PUT/GET interface DHARMA's engine runs on. Append merges
// entries into the block under key ("one-bit token" semantics: counts
// add up, data replaces); Get returns the block's entries sorted by
// descending count, truncated to topN when topN > 0. The caller owns
// the result: Get hands out a fresh slice whose byte slices alias no
// stored state, so the caller may filter or reorder it in place.
// Append and AppendBatch never modify the entries they are handed, so
// the caller may hand one slice to several appends.
//
// AppendBatch applies a group of independent appends — distinct keys,
// commutative merges — as one call. Each item still costs one Table-I
// lookup (the paper's cost model counts block operations, and a batch
// of n items is n block operations), but implementations are free to
// execute the items with fewer lock acquisitions or in parallel.
//
// Every operation takes a context as its first argument and honors
// cancellation and deadlines: an overlay-backed store aborts its
// in-flight lookup and replica RPCs and returns the context error. A
// write abandoned this way may still have landed on some replicas —
// exactly like a write whose acknowledgement was lost on the wire — so
// callers must treat a context error as "outcome unknown", never as
// "not written".
type Store interface {
	Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error
	AppendBatch(ctx context.Context, items []BatchItem) error
	Get(ctx context.Context, key kadid.ID, topN int) ([]wire.Entry, error)
}

// Counter reports how many block operations (the paper's "overlay
// lookups") a store has performed.
type Counter interface {
	Appends() int64
	Gets() int64
	// Lookups is Appends + Gets: the total cost in Table I units.
	Lookups() int64
}

// Local is an in-process Store. It reuses the same storage the overlay
// nodes use, so append/filter semantics are identical to a deployment.
type Local struct {
	store   *kademlia.Store
	appends atomic.Int64
	gets    atomic.Int64
}

// NewLocal creates an empty in-process store.
func NewLocal() *Local {
	return &Local{store: kademlia.NewStore()}
}

// Append implements Store. The in-process store cannot block on a
// network, but it still refuses work under an already-ended context so
// local and overlay deployments surface identical semantics.
func (l *Local) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.appends.Add(1)
	return l.store.Append(ctx, key, entries)
}

// AppendBatch implements Store: the items are applied in one pass under
// the store's lock. The lookup counter advances by one per item,
// keeping Table-I accounting identical to a loop of Appends.
func (l *Local) AppendBatch(ctx context.Context, items []BatchItem) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.appends.Add(int64(len(items)))
	return l.store.AppendBatch(ctx, items)
}

// Get implements Store.
func (l *Local) Get(ctx context.Context, key kadid.ID, topN int) ([]wire.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l.gets.Add(1)
	es, ok := l.store.Get(key, topN)
	if !ok {
		return nil, ErrNotFound
	}
	return es, nil
}

// Appends implements Counter.
func (l *Local) Appends() int64 { return l.appends.Load() }

// Gets implements Counter.
func (l *Local) Gets() int64 { return l.gets.Load() }

// Lookups implements Counter.
func (l *Local) Lookups() int64 { return l.appends.Load() + l.gets.Load() }

// Raw exposes the underlying block store (for inspection in tests and
// the hotspot experiment).
func (l *Local) Raw() *kademlia.Store { return l.store }

// Overlay is a Store backed by a live Kademlia node. When Signer is
// set, entries that carry Data (URI blocks) are signed before storing,
// as Likir prescribes.
type Overlay struct {
	node    *kademlia.Node
	signer  *likir.Identity
	appends atomic.Int64
	gets    atomic.Int64
}

// NewOverlay wraps a bootstrapped node. signer may be nil (open overlay).
func NewOverlay(node *kademlia.Node, signer *likir.Identity) *Overlay {
	return &Overlay{node: node, signer: signer}
}

// Append implements Store: one iterative lookup locates the replica set,
// then the entries are stored on the k closest nodes.
func (o *Overlay) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	o.appends.Add(1)
	_, err := o.node.Store(ctx, key, o.sign(key, entries))
	return err
}

// AppendBatch implements Store. Each item is one overlay store (one
// iterative lookup plus the replica RPCs, and one Table-I lookup on the
// counter); the items target distinct keys and commute, so they are
// issued concurrently — a batch costs the latency of the slowest item,
// not the sum. All failures are reported, joined.
func (o *Overlay) AppendBatch(ctx context.Context, items []BatchItem) error {
	o.appends.Add(int64(len(items)))
	if len(items) == 1 {
		_, err := o.node.Store(ctx, items[0].Key, o.sign(items[0].Key, items[0].Entries))
		return err
	}
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it BatchItem) {
			defer wg.Done()
			_, err := o.node.Store(ctx, it.Key, o.sign(it.Key, it.Entries))
			errs[i] = err
		}(i, it)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sign signs entries that carry Data but no signature yet, when the
// overlay has a Likir identity attached.
func (o *Overlay) sign(key kadid.ID, entries []wire.Entry) []wire.Entry {
	if o.signer == nil {
		return entries
	}
	signed := make([]wire.Entry, len(entries))
	for i, e := range entries {
		if len(e.Data) > 0 && len(e.Sig) == 0 {
			e.Author, e.Sig = o.signer.SignEntry(key, e.Field, e.Data)
		}
		signed[i] = e
	}
	return signed
}

// Get implements Store: one iterative value lookup.
func (o *Overlay) Get(ctx context.Context, key kadid.ID, topN int) ([]wire.Entry, error) {
	o.gets.Add(1)
	es, err := o.node.FindValue(ctx, key, topN)
	if errors.Is(err, kademlia.ErrNotFound) {
		return nil, ErrNotFound
	}
	return es, err
}

// Appends implements Counter.
func (o *Overlay) Appends() int64 { return o.appends.Load() }

// Gets implements Counter.
func (o *Overlay) Gets() int64 { return o.gets.Load() }

// Lookups implements Counter.
func (o *Overlay) Lookups() int64 { return o.appends.Load() + o.gets.Load() }

// Node exposes the backing overlay node.
func (o *Overlay) Node() *kademlia.Node { return o.node }

var (
	_ Store   = (*Local)(nil)
	_ Counter = (*Local)(nil)
	_ Store   = (*Overlay)(nil)
	_ Counter = (*Overlay)(nil)
)
