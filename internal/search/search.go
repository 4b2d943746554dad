// Package search implements the faceted navigation of §III-C: starting
// from a tag t0, the user walks a path t0, t1, ..., tn in the
// Folksonomy Graph, at each step intersecting the candidate tag set
//
//	T_i = T_{i-1} ∩ N_FG(t_i)      (T_0 = N_FG(t_0))
//
// and the resource set
//
//	R_i = R_{i-1} ∩ Res(t_i)       (R_0 = Res(t_0)).
//
// Because t_i never neighbours itself, T_i shrinks strictly at every
// step, which proves convergence; the walk stops when |T_i| reduces to 1
// or |R_i| falls to the display threshold (10 in the paper).
//
// Mirroring the deployment, the tag list a user sees at each step is the
// top-N slice (by similarity from the current tag) of what the DHT
// returns — the paper's index-side filtering with N = 100. Selection
// strategies operate on that displayed slice.
package search

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"dharma/internal/folksonomy"
)

// View supplies the navigation data: the FG adjacency of a tag (sorted
// by descending similarity) and the resources it labels. Implementations
// back onto the in-memory model, an approximated graph, or a live DHT
// engine.
type View interface {
	// RelatedTags returns N_FG(t) with sim(t,·) weights, sorted by
	// descending weight (ties by name).
	RelatedTags(t string) []folksonomy.Weighted
	// Resources returns Res(t) with u(t,·) weights, unsorted.
	Resources(t string) []folksonomy.Weighted
}

// Strategy selects the next tag from the displayed list.
type Strategy int

// The three selection strategies evaluated in §V-C.
const (
	// First picks the tag most similar to the current one.
	First Strategy = iota
	// Last picks the least similar displayed tag.
	Last
	// Random picks uniformly among displayed tags.
	Random
)

// String names the strategy as in Table IV.
func (s Strategy) String() string {
	switch s {
	case First:
		return "first"
	case Last:
		return "last"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("strategy-%d", int(s))
	}
}

// Reason explains why a navigation stopped.
type Reason int

// Termination reasons.
const (
	// TagsConverged: |T_i| shrank to ≤ 1 — no further refinement exists.
	TagsConverged Reason = iota
	// ResourcesConverged: |R_i| fell to the resource threshold; the
	// remaining resources fit a result screen.
	ResourcesConverged
	// StepLimit: the safety bound on path length was hit.
	StepLimit
	// Canceled: the walk's context ended between steps; the Result holds
	// the partial path and Run returned the context's error alongside.
	Canceled
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case TagsConverged:
		return "tags-converged"
	case ResourcesConverged:
		return "resources-converged"
	case StepLimit:
		return "step-limit"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("reason-%d", int(r))
	}
}

// Options tunes a navigation run.
type Options struct {
	// DisplayCap is the maximum number of tags shown per step (paper:
	// 100). 0 selects 100; negative disables the cap.
	DisplayCap int
	// MinResources stops the walk once |R_i| is at or below it (paper:
	// 10). 0 selects 10.
	MinResources int
	// MaxSteps is a safety bound on the path length (0 selects 10000).
	MaxSteps int
	// Rng drives the Random strategy; nil seeds a deterministic source.
	Rng *rand.Rand
}

func (o Options) withDefaults() Options {
	switch {
	case o.DisplayCap == 0:
		o.DisplayCap = 100
	case o.DisplayCap < 0:
		o.DisplayCap = int(^uint(0) >> 1)
	}
	if o.MinResources == 0 {
		o.MinResources = 10
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 10000
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// Result records one completed navigation.
type Result struct {
	// Path is the sequence of selected tags, t0 first. Its length is
	// the paper's "search steps" measure.
	Path []string
	// FinalTags is T_n: the displayed candidate tags when the walk
	// stopped.
	FinalTags []string
	// FinalResources is R_n: the resources satisfying the conjunction
	// of every selected tag, sorted by name.
	FinalResources []string
	// Reason explains the termination.
	Reason Reason
}

// Steps returns len(Path): the number of tags the user selected.
func (r Result) Steps() int { return len(r.Path) }

// Run navigates v from the start tag under the given strategy. ctx is
// checked before every navigation step (each step costs two overlay
// lookups against a live deployment): a context that ends mid-walk
// stops the navigation immediately and Run returns the partial Result
// — path walked so far, Reason Canceled — together with ctx.Err().
// Errors a context-aware View swallowed inside a step are NOT returned
// here; EngineView retains them for its Err method.
func Run(ctx context.Context, v View, start string, strat Strategy, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if err := ctx.Err(); err != nil {
		return Result{Reason: Canceled}, err
	}

	display := displayedTags(v, start, opt.DisplayCap, nil)
	resources := make(map[string]bool)
	for _, w := range v.Resources(start) {
		resources[w.Name] = true
	}

	res := Result{Path: []string{start}}
	var walkErr error
	for {
		if err := ctx.Err(); err != nil {
			res.Reason = Canceled
			walkErr = err
			break
		}
		if len(resources) <= opt.MinResources {
			res.Reason = ResourcesConverged
			break
		}
		if len(display) <= 1 {
			res.Reason = TagsConverged
			break
		}
		if len(res.Path) >= opt.MaxSteps {
			res.Reason = StepLimit
			break
		}

		next := pick(display, strat, opt.Rng).Name
		res.Path = append(res.Path, next)

		// T_i = T_{i-1} ∩ (displayed slice of N_FG(next)).
		member := make(map[string]bool, len(display))
		for _, w := range display {
			member[w.Name] = true
		}
		display = displayedTags(v, next, opt.DisplayCap, member)

		// R_i = R_{i-1} ∩ Res(next).
		nextRes := make(map[string]bool)
		for _, w := range v.Resources(next) {
			if resources[w.Name] {
				nextRes[w.Name] = true
			}
		}
		resources = nextRes
	}

	res.FinalTags = names(display)
	res.FinalResources = make([]string, 0, len(resources))
	for r := range resources {
		res.FinalResources = append(res.FinalResources, r)
	}
	slices.Sort(res.FinalResources)
	return res, walkErr
}

// RunFromResource navigates "more like this": the walk starts at an
// existing resource instead of a tag. The resource's own tag list plays
// the role of the first display — the strategy picks the entry tag from
// it (weights are the u(t,r) annotation counts) — and the walk then
// proceeds exactly like Run, under the same ctx. The view must also
// implement ResourceTagger; an unknown resource yields a zero-length
// path.
func RunFromResource(ctx context.Context, v View, rt ResourceTagger, r string, strat Strategy, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if err := ctx.Err(); err != nil {
		return Result{Reason: Canceled}, err
	}
	tags := rt.TagsOf(r)
	if len(tags) == 0 {
		return Result{Reason: TagsConverged}, nil
	}
	folksonomy.SortWeighted(tags)
	if len(tags) > opt.DisplayCap {
		tags = tags[:opt.DisplayCap]
	}
	start := pick(tags, strat, opt.Rng).Name
	return Run(ctx, v, start, strat, opt)
}

// displayedTags fetches the neighbour list of t, truncates it to the
// display cap (index-side filtering), and — when filter is non-nil —
// keeps only tags already in the running intersection.
func displayedTags(v View, t string, cap int, filter map[string]bool) []folksonomy.Weighted {
	ws := v.RelatedTags(t)
	if len(ws) > cap {
		ws = ws[:cap]
	}
	if filter == nil {
		return ws
	}
	out := ws[:0:0]
	for _, w := range ws {
		if filter[w.Name] && w.Name != t {
			out = append(out, w)
		}
	}
	return out
}

func pick(display []folksonomy.Weighted, strat Strategy, rng *rand.Rand) folksonomy.Weighted {
	switch strat {
	case First:
		return display[0]
	case Last:
		return display[len(display)-1]
	default:
		return display[rng.Intn(len(display))]
	}
}

func names(ws []folksonomy.Weighted) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}
