package main

import (
	"context"
	"fmt"
	"math/rand"
)

// shadow is the benchmark's own model of what the applied inserts and
// tags must have left in the system: which resources were published and
// how many "+1 tokens" each (resource, pool tag) pair received. Only
// acknowledged ops are applied to it.
type shadow struct {
	resources []resource
	published []bool
	tokens    [][poolSize]uint32
}

func newShadow(l opList) *shadow {
	return &shadow{
		resources: l.resources,
		published: make([]bool, len(l.resources)),
		tokens:    make([][poolSize]uint32, len(l.resources)),
	}
}

func (m *shadow) apply(o op) {
	switch o.kind {
	case opInsert:
		m.published[o.res] = true
		for slot := 0; slot < tagsPerInsert; slot++ {
			m.tokens[o.res][slot]++
		}
	case opTag:
		m.tokens[o.res][o.slot]++
	}
}

// verify reads the system back through c — a peer that issued none of
// the ops — and returns how many checks it made and the mismatches
// found: every published resource must resolve to its URI, and for a
// seeded sample of resources TagsOf must report each tag with at least
// the modelled weight (at least: the system may only ever have more).
func (m *shadow) verify(ctx context.Context, c client, seed int64) (checks int, mismatches []string) {
	var published []int
	for i, ok := range m.published {
		if ok {
			published = append(published, i)
		}
	}
	for _, i := range published {
		r := &m.resources[i]
		checks++
		uri, err := c.resolveURI(ctx, r.name)
		if err != nil {
			mismatches = append(mismatches, fmt.Sprintf("resolve %s: %v", r.name, err))
		} else if uri != r.uri {
			mismatches = append(mismatches, fmt.Sprintf("resolve %s: got %q, want %q", r.name, uri, r.uri))
		}
	}

	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(published), func(i, j int) { published[i], published[j] = published[j], published[i] })
	if len(published) > verifySamples {
		published = published[:verifySamples]
	}
	for _, i := range published {
		r := &m.resources[i]
		checks++
		ws, err := c.tagsOf(ctx, r.name)
		if err != nil {
			mismatches = append(mismatches, fmt.Sprintf("tags of %s: %v", r.name, err))
			continue
		}
		got := make(map[string]int, len(ws))
		for _, w := range ws {
			got[w.Name] = w.Weight
		}
		for slot, want := range m.tokens[i] {
			if name := tagNames[r.pool[slot]]; got[name] < int(want) {
				mismatches = append(mismatches, fmt.Sprintf("tags of %s: %s has weight %d, model says at least %d",
					r.name, name, got[name], want))
				break
			}
		}
	}
	return checks, mismatches
}
