// Package folksonomy implements the tagging-system model of §III of the
// paper: the Tag-Resource Graph (TRG), the Folksonomy Graph (FG) derived
// from it through the similarity measure
//
//	sim(t1,t2) = Σ_{r ∈ Res(t1)} u(t2,r),
//
// and the maintenance rules that keep both graphs consistent while users
// insert resources and add tags. This is the exact ("theoretic") model;
// the DHT-mapped, approximated evolution lives in internal/core and is
// evaluated against this one.
//
// Tag and resource names are interned to dense integer identifiers
// internally: graph maintenance is the hot loop of every evaluation
// experiment (hundreds of thousands of tagging operations, each touching
// |Tags(r)| similarity arcs), and integer-keyed adjacency is several
// times faster than hashing strings. The public API speaks strings.
package folksonomy

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Weighted is a (name, weight) pair: a tag with its similarity, or a
// resource with its annotation count.
type Weighted struct {
	Name   string
	Weight int
}

// SortWeighted orders by descending weight, ties broken by name, which
// is the presentation order of a search step.
func SortWeighted(ws []Weighted) {
	slices.SortFunc(ws, func(a, b Weighted) int {
		if c := cmp.Compare(b.Weight, a.Weight); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
}

// Graph holds a TRG and the FG incrementally derived from it.
type Graph struct {
	tagID   map[string]int32
	tagName []string
	resID   map[string]int32
	resName []string

	tagsOf [][]idw           // resource -> (tag, u) adjacency
	tagPos []map[int32]int32 // resource -> tag -> index into tagsOf[r]
	resOf  []map[int32]int32 // tag -> resource -> u
	sim    []map[int32]int32 // t1 -> t2 -> sim(t1,t2)
	uri    []string
}

// idw is an (id, weight) adjacency cell.
type idw struct {
	id int32
	w  int32
}

// New creates an empty folksonomy.
func New() *Graph {
	return &Graph{
		tagID: make(map[string]int32),
		resID: make(map[string]int32),
	}
}

func (g *Graph) internTag(t string) int32 {
	if id, ok := g.tagID[t]; ok {
		return id
	}
	id := int32(len(g.tagName))
	g.tagID[t] = id
	g.tagName = append(g.tagName, t)
	g.resOf = append(g.resOf, make(map[int32]int32))
	g.sim = append(g.sim, make(map[int32]int32))
	return id
}

func (g *Graph) internRes(r string) int32 {
	id := int32(len(g.resName))
	g.resID[r] = id
	g.resName = append(g.resName, r)
	g.tagsOf = append(g.tagsOf, nil)
	g.tagPos = append(g.tagPos, make(map[int32]int32))
	g.uri = append(g.uri, "")
	return id
}

// HasResource reports whether r is a known resource.
func (g *Graph) HasResource(r string) bool {
	_, ok := g.resID[r]
	return ok
}

// HasTag reports whether t is a known tag.
func (g *Graph) HasTag(t string) bool {
	_, ok := g.tagID[t]
	return ok
}

// InsertResource performs the resource-insertion maintenance of
// §III-B1: r is added with the (deduplicated) tag set tags, every
// (r, t_i) edge gets weight 1, and every ordered pair of distinct tags
// has its similarity incremented by one (created at 1 if absent).
func (g *Graph) InsertResource(r, uri string, tags ...string) error {
	if g.HasResource(r) {
		return fmt.Errorf("folksonomy: resource %q already exists", r)
	}
	rid := g.internRes(r)
	g.uri[rid] = uri

	uniq := make([]int32, 0, len(tags))
	seen := make(map[int32]bool, len(tags))
	for _, t := range tags {
		tid := g.internTag(t)
		if !seen[tid] {
			seen[tid] = true
			uniq = append(uniq, tid)
		}
	}
	for _, tid := range uniq {
		g.tagPos[rid][tid] = int32(len(g.tagsOf[rid]))
		g.tagsOf[rid] = append(g.tagsOf[rid], idw{id: tid, w: 1})
		g.resOf[tid][rid] = 1
	}
	for _, t1 := range uniq {
		m := g.sim[t1]
		for _, t2 := range uniq {
			if t1 != t2 {
				m[t2]++
			}
		}
	}
	return nil
}

// Tag performs the tag-insertion maintenance of §III-B2 on an existing
// resource: u(t,r) is created at 1 or incremented; for every other tag
// τ of r, sim(τ,t) grows by one, and sim(t,τ) grows by u(τ,r) only when
// t is new on r.
func (g *Graph) Tag(r, t string) error {
	rid, ok := g.resID[r]
	if !ok {
		return fmt.Errorf("folksonomy: resource %q does not exist", r)
	}
	tid := g.internTag(t)

	pos, wasTagged := g.tagPos[rid][tid]
	adj := g.tagsOf[rid]
	simT := g.sim[tid]
	for i := range adj {
		τ := adj[i].id
		if τ == tid {
			continue
		}
		g.sim[τ][tid]++
		if !wasTagged {
			simT[τ] += adj[i].w
		}
	}
	if wasTagged {
		adj[pos].w++
	} else {
		g.tagPos[rid][tid] = int32(len(adj))
		g.tagsOf[rid] = append(adj, idw{id: tid, w: 1})
	}
	g.resOf[tid][rid]++
	return nil
}

// U returns the TRG edge weight u(t,r): how many users tagged r with t.
func (g *Graph) U(t, r string) int {
	rid, ok := g.resID[r]
	if !ok {
		return 0
	}
	tid, ok := g.tagID[t]
	if !ok {
		return 0
	}
	pos, ok := g.tagPos[rid][tid]
	if !ok {
		return 0
	}
	return int(g.tagsOf[rid][pos].w)
}

// Sim returns sim(t1,t2), 0 when no arc exists.
func (g *Graph) Sim(t1, t2 string) int {
	id1, ok := g.tagID[t1]
	if !ok {
		return 0
	}
	id2, ok := g.tagID[t2]
	if !ok {
		return 0
	}
	return int(g.sim[id1][id2])
}

// URI returns the URI registered for r (type-4 block content).
func (g *Graph) URI(r string) string {
	rid, ok := g.resID[r]
	if !ok {
		return ""
	}
	return g.uri[rid]
}

// Tags returns Tags(r) with weights, unsorted.
func (g *Graph) Tags(r string) []Weighted {
	rid, ok := g.resID[r]
	if !ok {
		return nil
	}
	adj := g.tagsOf[rid]
	out := make([]Weighted, len(adj))
	for i, c := range adj {
		out[i] = Weighted{Name: g.tagName[c.id], Weight: int(c.w)}
	}
	return out
}

// Res returns Res(t) with weights, unsorted.
func (g *Graph) Res(t string) []Weighted {
	tid, ok := g.tagID[t]
	if !ok {
		return nil
	}
	m := g.resOf[tid]
	out := make([]Weighted, 0, len(m))
	for rid, w := range m {
		out = append(out, Weighted{Name: g.resName[rid], Weight: int(w)})
	}
	return out
}

// Neighbors returns N_FG(t): the tags with non-zero similarity from t,
// with their sim(t, ·) weights, unsorted.
func (g *Graph) Neighbors(t string) []Weighted {
	tid, ok := g.tagID[t]
	if !ok {
		return nil
	}
	m := g.sim[tid]
	out := make([]Weighted, 0, len(m))
	for t2, w := range m {
		out = append(out, Weighted{Name: g.tagName[t2], Weight: int(w)})
	}
	return out
}

// TagDegree returns |Tags(r)|.
func (g *Graph) TagDegree(r string) int {
	rid, ok := g.resID[r]
	if !ok {
		return 0
	}
	return len(g.tagsOf[rid])
}

// ResDegree returns |Res(t)|.
func (g *Graph) ResDegree(t string) int {
	tid, ok := g.tagID[t]
	if !ok {
		return 0
	}
	return len(g.resOf[tid])
}

// NeighborDegree returns |N_FG(t)| (the FG out-degree of t).
func (g *Graph) NeighborDegree(t string) int {
	tid, ok := g.tagID[t]
	if !ok {
		return 0
	}
	return len(g.sim[tid])
}

// NumResources returns |R|.
func (g *Graph) NumResources() int { return len(g.resName) }

// NumTags returns |T|.
func (g *Graph) NumTags() int { return len(g.tagName) }

// NumArcs returns the number of directed FG arcs.
func (g *Graph) NumArcs() int {
	n := 0
	for _, m := range g.sim {
		n += len(m)
	}
	return n
}

// ResourceNames returns every resource name in insertion order. The
// returned slice is shared; callers must not modify it.
func (g *Graph) ResourceNames() []string { return g.resName }

// TagNames returns every tag name in first-use order. The returned
// slice is shared; callers must not modify it.
func (g *Graph) TagNames() []string { return g.tagName }

// ForEachArc calls fn for every directed FG arc (t1, t2, sim(t1,t2)).
func (g *Graph) ForEachArc(fn func(t1, t2 string, w int)) {
	for t1, m := range g.sim {
		for t2, w := range m {
			fn(g.tagName[t1], g.tagName[t2], int(w))
		}
	}
}

// RecomputeSimFromTRG derives the FG from scratch using the definition
// sim(t1,t2) = Σ_{r∈Res(t1)} u(t2,r). It is the oracle the incremental
// maintenance is validated against in tests.
func (g *Graph) RecomputeSimFromTRG() map[string]map[string]int {
	out := make(map[string]map[string]int, len(g.tagName))
	for t1 := range g.tagName {
		m := make(map[string]int)
		for rid := range g.resOf[t1] {
			for _, c := range g.tagsOf[rid] {
				if int(c.id) == t1 {
					continue
				}
				m[g.tagName[c.id]] += int(c.w)
			}
		}
		out[g.tagName[t1]] = m
	}
	return out
}
