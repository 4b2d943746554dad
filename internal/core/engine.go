package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"dharma/internal/dht"
	"dharma/internal/folksonomy"
	"dharma/internal/wire"
)

// Mode selects between the exact protocol and the approximated one.
type Mode int

// Engine modes. Approximated, the zero value, applies Approximations A
// and B; Naive implements §III-B verbatim (one lookup per reverse arc,
// forward arcs created at u(τ,r)).
const (
	Approximated Mode = iota
	Naive
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Naive {
		return "naive"
	}
	return "approximated"
}

// DefaultTopN is the index-side filter cap used by search steps: the
// paper bounds the tag set shown to the user at each step to the top
// 100 tags retrieved from the DHT.
const DefaultTopN = 100

// Config parameterises an Engine.
type Config struct {
	// Mode selects approximated (the zero value) or naive maintenance.
	Mode Mode
	// K is the connection parameter of Approximation A: the maximum
	// number of reverse-arc blocks updated per tagging operation.
	// It must be positive in Approximated mode.
	K int
	// TopN caps the entries fetched per block during a search step
	// (default DefaultTopN). 0 keeps the default; negative disables
	// filtering.
	TopN int
	// Seed drives the random subset selection of Approximation A.
	Seed int64
}

// ErrNoSuchTag is returned by SearchStep for a tag with no blocks.
var ErrNoSuchTag = errors.New("core: unknown tag")

// Engine is a DHARMA endpoint: it executes tagging-system primitives
// against a block store. An Engine is what a peer embeds; any number of
// engines may operate on the same overlay concurrently, and a single
// Engine is itself safe for concurrent use — all mutable state is the
// subset-sampling source of Approximation A, guarded by rngMu.
type Engine struct {
	store dht.Store
	cfg   Config
	topN  int

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewEngine creates an engine over store.
func NewEngine(store dht.Store, cfg Config) (*Engine, error) {
	if cfg.Mode == Approximated && cfg.K <= 0 {
		return nil, fmt.Errorf("core: approximated mode requires K > 0, got %d", cfg.K)
	}
	topN := cfg.TopN
	switch {
	case topN == 0:
		topN = DefaultTopN
	case topN < 0:
		topN = 0 // disable filtering
	}
	return &Engine{
		store: store,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		topN:  topN,
	}, nil
}

// Mode returns the engine's maintenance mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// K returns the connection parameter (meaningful in Approximated mode).
func (e *Engine) K() int { return e.cfg.K }

// Store returns the underlying block store.
func (e *Engine) Store() dht.Store { return e.store }

// InsertResource publishes a new resource r with URI uri and the tag
// set tags (deduplicated). Per Table I it costs exactly 2+2m lookups
// for m distinct tags, in both modes:
//
//	1 append of r̃ + 1 append of r̄ + m appends of t̄_i + m appends of t̂_i.
//
// It runs in two stages: the append of r̃ alone, then one batch of r̄,
// every t̄_i and every t̂_i. The lone first write is the operation's
// probe: if r̃'s replica set refuses or stalls it (BUSY, timeout,
// cancellation), nothing else is sent, so a doomed insertion under
// overload does not spend its whole batch. An error from the first stage
// means at most r̃ was applied; an error from the batch means r̃ plus
// any subset of the batch was (a failing item does not stop its
// siblings, and every failure is reported, joined).
//
// Inserting a name that already exists is not detected here (checking
// would cost an extra lookup the paper does not account); higher layers
// own name allocation.
func (e *Engine) InsertResource(ctx context.Context, r, uri string, tags ...string) error {
	tags = dedup(tags)

	if err := e.store.Append(ctx, BlockKey(r, BlockResourceURI), []wire.Entry{
		{Field: r, Count: 1, Data: []byte(uri)},
	}); err != nil {
		return fmt.Errorf("core: insert %q (r̃): %w", r, err)
	}

	// r̄ and the 2m per-tag appends (t̄_i and t̂_i) target distinct keys
	// and commute, so they go out as one batch: still 1+2m Table-I
	// lookups, but one grouped store call instead of 1+2m sequential
	// round-trips. An empty r̄ (untagged insert) or t̂ arc set
	// (single-tag insert) stays in the batch for the lookup count, but
	// materializes no block at the storage node. Every t̄_i gets the
	// same single entry, and the m t̂_i arc lists are cut from one
	// backing array; a store only reads the entries it is handed
	// (dht.Store).
	batch := make([]dht.BatchItem, 0, 1+2*len(tags))
	rBar := make([]wire.Entry, len(tags))
	for i, t := range tags {
		rBar[i] = wire.Entry{Field: t, Count: 1}
	}
	batch = append(batch, dht.BatchItem{Key: BlockKey(r, BlockResourceTags), Entries: rBar})
	resEntry := []wire.Entry{{Field: r, Count: 1}}
	for _, t := range tags {
		batch = append(batch, dht.BatchItem{Key: BlockKey(t, BlockTagResources), Entries: resEntry})
	}
	arcs := make([]wire.Entry, 0, len(tags)*(len(tags)-1))
	for _, t := range tags {
		from := len(arcs)
		for _, other := range tags {
			if other != t {
				arcs = append(arcs, wire.Entry{Field: other, Count: 1})
			}
		}
		batch = append(batch, dht.BatchItem{Key: BlockKey(t, BlockTagNeighbors), Entries: arcs[from:len(arcs):len(arcs)]})
	}
	if err := e.store.AppendBatch(ctx, batch); err != nil {
		return fmt.Errorf("core: insert %q (r̄ and tag blocks): %w", r, err)
	}
	return nil
}

// Tag adds tag t to the existing resource r, maintaining the mapped TRG
// and FG. Its cost is exactly 4+|Tags(r)\{t}| lookups in Naive mode and
// 4+min(K,|Tags(r)\{t}|) in Approximated mode:
//
//	1 get of r̄ (learn Tags(r) and the u(τ,r) weights)
//	1 append of r̄ (u(t,r) += 1)
//	1 append of t̄ (u(t,r) += 1, reverse orientation)
//	1 append of t̂_t (forward arcs (t,τ); empty when t was present)
//	+ one append of t̂_τ per updated reverse arc (τ,t).
//
// It runs in three stages: the get of r̄; the append of r̄ alone; then
// one batch of t̄, t̂_t and every sampled t̂_τ. The write stages cannot
// start before the get, which supplies Tags(r). The append of r̄ goes
// alone as the operation's probe: if r̄'s replica set refuses or stalls
// it (BUSY, timeout, cancellation), nothing else is sent, so a doomed
// tagging under overload does not spend its whole batch. An error from
// the r̄ append means at most r̄ was applied; an error from the batch
// means r̄ plus any subset of the batch was (a failing item does not
// stop its siblings, and every failure is reported, joined).
func (e *Engine) Tag(ctx context.Context, r, t string) error {
	rKey := BlockKey(r, BlockResourceTags)
	prior, err := e.store.Get(ctx, rKey, 0)
	if err != nil && !errors.Is(err, dht.ErrNotFound) {
		return fmt.Errorf("core: tag %q on %q (read r̄): %w", t, r, err)
	}

	// The Get result is ours (dht.Store.Get), so Tags(r)\{t} is
	// filtered in place, keeping the block order.
	wasTagged := false
	others := prior[:0]
	for i := range prior {
		if prior[i].Field == t {
			wasTagged = true
		} else {
			others = append(others, prior[i])
		}
	}

	// tEntry also serves every reverse arc below: a store only reads
	// the entries it is handed (dht.Store).
	tEntry := []wire.Entry{{Field: t, Count: 1}}
	if err := e.store.Append(ctx, rKey, tEntry); err != nil {
		return fmt.Errorf("core: tag %q on %q (r̄): %w", t, r, err)
	}

	// Forward arcs (t,τ): only updated when t is new on r, by the
	// theoretic increment u(τ,r). Approximation B dampens the creation
	// case: an arc that does not exist yet starts at 1 instead of
	// u(τ,r). The conditional travels with the entry (Init) and is
	// evaluated by the storage node, so no extra lookup is needed and a
	// racing double-creation is bounded at 2 rather than 2·u(τ,r).
	//
	// When t was already present, forward stays empty: the append is
	// still issued (Table I charges the lookup either way), but the
	// storage node materializes no block for it — re-tagging must not
	// create a phantom empty t̂ that skews Has/EntryCount accounting.
	// forward is copied out before the sampling below reorders others.
	var forward []wire.Entry
	if !wasTagged {
		forward = make([]wire.Entry, len(others))
		for i := range others {
			forward[i] = wire.Entry{Field: others[i].Field, Count: others[i].Count}
			if e.cfg.Mode == Approximated {
				forward[i].Init = 1
			}
		}
	}

	// Reverse arcs (τ,t): one block update per τ. Approximation A
	// bounds the fan-out to a uniform random subset of size ≤ K.
	reverse := others
	if e.cfg.Mode == Approximated && len(reverse) > e.cfg.K {
		reverse = e.sampleEntries(reverse, e.cfg.K)
	}

	// t̄, t̂_t and the reverse t̂_τ are independent appends to distinct
	// blocks (τ ≠ t); one batched call covers them all while keeping
	// the per-block lookup count (2+len(reverse) Table-I lookups).
	batch := make([]dht.BatchItem, 0, 2+len(reverse))
	batch = append(batch,
		dht.BatchItem{Key: BlockKey(t, BlockTagResources), Entries: []wire.Entry{{Field: r, Count: 1}}},
		dht.BatchItem{Key: BlockKey(t, BlockTagNeighbors), Entries: forward})
	for i := range reverse {
		batch = append(batch, dht.BatchItem{Key: BlockKey(reverse[i].Field, BlockTagNeighbors), Entries: tEntry})
	}
	if err := e.store.AppendBatch(ctx, batch); err != nil {
		return fmt.Errorf("core: tag %q on %q (t̄, t̂ and reverse t̂ arcs): %w", t, r, err)
	}
	return nil
}

// SearchStep retrieves the navigation data for tag t: its FG neighbours
// ordered by descending similarity and its resources ordered by
// descending annotation count, both truncated to the engine's TopN
// (index-side filtering). Per Table I it costs exactly 2 lookups.
func (e *Engine) SearchStep(ctx context.Context, t string) (related, resources []folksonomy.Weighted, err error) {
	neigh, errN := e.store.Get(ctx, BlockKey(t, BlockTagNeighbors), e.topN)
	if errN != nil && !errors.Is(errN, dht.ErrNotFound) {
		return nil, nil, fmt.Errorf("core: search %q (t̂): %w", t, errN)
	}
	res, errR := e.store.Get(ctx, BlockKey(t, BlockTagResources), e.topN)
	if errR != nil && !errors.Is(errR, dht.ErrNotFound) {
		return nil, nil, fmt.Errorf("core: search %q (t̄): %w", t, errR)
	}
	if errors.Is(errN, dht.ErrNotFound) && errors.Is(errR, dht.ErrNotFound) {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchTag, t)
	}
	return toWeighted(neigh), toWeighted(res), nil
}

// ResolveURI fetches the URI published for resource r (block r̃); one
// lookup.
func (e *Engine) ResolveURI(ctx context.Context, r string) (string, error) {
	es, err := e.store.Get(ctx, BlockKey(r, BlockResourceURI), 0)
	if err != nil {
		return "", fmt.Errorf("core: resolve %q: %w", r, err)
	}
	for _, en := range es {
		if en.Field == r {
			return string(en.Data), nil
		}
	}
	return "", fmt.Errorf("core: resolve %q: %w", r, dht.ErrNotFound)
}

// TagsOf fetches Tags(r) with weights from r̄ (one lookup), sorted by
// descending weight.
func (e *Engine) TagsOf(ctx context.Context, r string) ([]folksonomy.Weighted, error) {
	es, err := e.store.Get(ctx, BlockKey(r, BlockResourceTags), 0)
	if err != nil {
		if errors.Is(err, dht.ErrNotFound) {
			return nil, nil
		}
		return nil, err
	}
	return toWeighted(es), nil
}

// Neighbors fetches the full (unfiltered) FG adjacency of t; used by
// experiments that compare the mapped graph against the theoretic one.
func (e *Engine) Neighbors(ctx context.Context, t string) ([]folksonomy.Weighted, error) {
	es, err := e.store.Get(ctx, BlockKey(t, BlockTagNeighbors), 0)
	if err != nil {
		if errors.Is(err, dht.ErrNotFound) {
			return nil, nil
		}
		return nil, err
	}
	return toWeighted(es), nil
}

// sampleEntries returns k entries drawn uniformly without replacement:
// a partial Fisher-Yates that shuffles in into its own prefix.
func (e *Engine) sampleEntries(in []wire.Entry, k int) []wire.Entry {
	e.rngMu.Lock()
	for i := 0; i < k; i++ {
		j := i + e.rng.Intn(len(in)-i)
		in[i], in[j] = in[j], in[i]
	}
	e.rngMu.Unlock()
	return in[:k]
}

func toWeighted(es []wire.Entry) []folksonomy.Weighted {
	out := make([]folksonomy.Weighted, len(es))
	for i := range es {
		out[i] = folksonomy.Weighted{Name: es[i].Field, Weight: int(es[i].Count)}
	}
	return out
}

func dedup(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
