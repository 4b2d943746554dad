package search

import (
	"context"
	"sync"

	"dharma/internal/core"
	"dharma/internal/folksonomy"
)

// FolkView navigates the in-memory theoretic model. Sorted adjacency
// lists are cached: the convergence experiments run hundreds of walks
// over the same graph.
type FolkView struct {
	G *folksonomy.Graph

	mu    sync.Mutex
	cache map[string][]folksonomy.Weighted
}

// NewFolkView wraps g.
func NewFolkView(g *folksonomy.Graph) *FolkView {
	return &FolkView{G: g, cache: make(map[string][]folksonomy.Weighted)}
}

// RelatedTags implements View.
func (v *FolkView) RelatedTags(t string) []folksonomy.Weighted {
	v.mu.Lock()
	ws, ok := v.cache[t]
	v.mu.Unlock()
	if ok {
		return ws
	}
	ws = v.G.Neighbors(t)
	folksonomy.SortWeighted(ws)
	v.mu.Lock()
	v.cache[t] = ws
	v.mu.Unlock()
	return ws
}

// Resources implements View.
func (v *FolkView) Resources(t string) []folksonomy.Weighted {
	return v.G.Res(t)
}

// FGSource supplies the (possibly approximated) Folksonomy Graph
// adjacency of a tag, unsorted. Both the evolution simulator's result
// and plain adjacency maps implement it.
type FGSource interface {
	Neighbors(t string) []folksonomy.Weighted
}

// MapFG adapts a plain adjacency map to FGSource.
type MapFG map[string]map[string]int

// Neighbors implements FGSource.
func (m MapFG) Neighbors(t string) []folksonomy.Weighted {
	adj := m[t]
	out := make([]folksonomy.Weighted, 0, len(adj))
	for name, w := range adj {
		out = append(out, folksonomy.Weighted{Name: name, Weight: w})
	}
	return out
}

// CompositeView navigates an approximated FG (typically the result of
// the evolution simulation) while reading resources from the original
// TRG — the paper notes that "only the FG is affected by the
// approximation, while the TRG graph remains the same".
type CompositeView struct {
	FG  FGSource
	TRG *folksonomy.Graph

	mu    sync.Mutex
	cache map[string][]folksonomy.Weighted
}

// NewCompositeView pairs an approximated FG with the original TRG.
func NewCompositeView(fg FGSource, trg *folksonomy.Graph) *CompositeView {
	return &CompositeView{FG: fg, TRG: trg, cache: make(map[string][]folksonomy.Weighted)}
}

// RelatedTags implements View.
func (v *CompositeView) RelatedTags(t string) []folksonomy.Weighted {
	v.mu.Lock()
	ws, ok := v.cache[t]
	v.mu.Unlock()
	if ok {
		return ws
	}
	ws = v.FG.Neighbors(t)
	folksonomy.SortWeighted(ws)
	v.mu.Lock()
	v.cache[t] = ws
	v.mu.Unlock()
	return ws
}

// Resources implements View.
func (v *CompositeView) Resources(t string) []folksonomy.Weighted {
	return v.TRG.Res(t)
}

// EngineView navigates a live DHARMA engine: every step's data comes
// from the DHT via SearchStep (2 overlay lookups). The last step is
// memoised because Run always asks for the tags and then the resources
// of the same tag.
//
// An EngineView is request-scoped: it is built per walk, and the
// context it is built with bounds every lookup the walk performs (the
// View interface itself is context-free because the in-memory views
// never block).
type EngineView struct {
	E *core.Engine

	ctx     context.Context
	mu      sync.Mutex
	lastTag string
	related []folksonomy.Weighted
	res     []folksonomy.Weighted
	ok      bool
	err     error
}

// NewEngineView wraps e for one walk bounded by ctx.
func NewEngineView(ctx context.Context, e *core.Engine) *EngineView {
	return &EngineView{E: e, ctx: ctx}
}

func (v *EngineView) load(t string) {
	if v.ok && v.lastTag == t {
		return
	}
	related, res, err := v.E.SearchStep(v.ctx, t)
	if err != nil {
		// The View interface cannot propagate errors mid-walk, so the
		// step degrades to "nothing displayed" (the walk converges) and
		// the first failure is retained for Err. ErrNoSuchTag is
		// retained too: on an overlay, a dropped lookup of an existing
		// tag is indistinguishable from an unknown tag, and callers
		// that navigate a known vocabulary (the benchmark) must see
		// it — callers starting from arbitrary user input can filter
		// with errors.Is(err, core.ErrNoSuchTag).
		if v.err == nil {
			v.err = err
		}
		related, res = nil, nil
	}
	folksonomy.SortWeighted(related)
	v.lastTag, v.related, v.res, v.ok = t, related, res, true
}

// Err returns the first lookup error a walk through this view
// swallowed, nil on a clean walk. Load harnesses check it after
// search.Run, which itself never errors.
func (v *EngineView) Err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err
}

// RelatedTags implements View.
func (v *EngineView) RelatedTags(t string) []folksonomy.Weighted {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.load(t)
	return v.related
}

// Resources implements View.
func (v *EngineView) Resources(t string) []folksonomy.Weighted {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.load(t)
	return v.res
}

// ResourceTagger is the optional view capability behind resource-pivot
// navigation: listing Tags(r).
type ResourceTagger interface {
	TagsOf(r string) []folksonomy.Weighted
}

// TagsOf implements ResourceTagger.
func (v *FolkView) TagsOf(r string) []folksonomy.Weighted { return v.G.Tags(r) }

// TagsOf implements ResourceTagger.
func (v *CompositeView) TagsOf(r string) []folksonomy.Weighted { return v.TRG.Tags(r) }

// TagsOf implements ResourceTagger (one overlay lookup of r̄). A failed
// lookup degrades to "no tags" and is retained for Err.
func (v *EngineView) TagsOf(r string) []folksonomy.Weighted {
	ws, err := v.E.TagsOf(v.ctx, r)
	if err != nil {
		v.mu.Lock()
		if v.err == nil {
			v.err = err
		}
		v.mu.Unlock()
		return nil
	}
	return ws
}

var (
	_ View           = (*FolkView)(nil)
	_ View           = (*CompositeView)(nil)
	_ View           = (*EngineView)(nil)
	_ ResourceTagger = (*FolkView)(nil)
	_ ResourceTagger = (*CompositeView)(nil)
	_ ResourceTagger = (*EngineView)(nil)
)
