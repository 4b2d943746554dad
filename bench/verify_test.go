package main

import (
	"context"
	"testing"
	"time"

	"dharma"
	"dharma/internal/core"
	"dharma/internal/dht"
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// droppingStore acknowledges every append but silently loses one: the
// first to the block under drop. It is the fault output verification
// exists to catch.
type droppingStore struct {
	dht.Store
	drop    kadid.ID
	dropped bool
}

func (s *droppingStore) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	if key == s.drop && !s.dropped {
		s.dropped = true
		return nil
	}
	return s.Store.Append(ctx, key, entries)
}

func localOpList() (workload, opList) {
	w, _ := findWorkload("local-mixed")
	return w, generate(11, w.mix, 3000)
}

// runLocal drives a local engine over store through seeding and a short
// stretch of ops, and returns the verification outcome.
func runLocal(t *testing.T, store dht.Store) (checks int, mismatches []string) {
	t.Helper()
	_, l := localOpList()
	engine, err := core.NewEngine(store, engineConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	c := engineClient{engine}
	sys := &system{
		clients:      []client{c},
		verifier:     c,
		blockOps:     func() int64 { return 0 },
		busyRejected: func() int64 { return 0 },
	}
	model := newShadow(l)
	if err := sys.seed(l, model); err != nil {
		t.Fatal(err)
	}
	r := newRunner(sys, l, model, mixBlock)
	for r.cursor < len(l.ops) {
		p, err := r.run(50*time.Millisecond, nil)
		if err != nil || p.failed > 0 {
			t.Fatalf("run: %v; ops failed: %v", err, p.firstErr)
		}
	}
	return model.verify(context.Background(), sys.verifier, 11)
}

func TestVerifyPassesOnAFaithfulStore(t *testing.T) {
	checks, mismatches := runLocal(t, dht.NewLocal())
	if len(mismatches) > 0 {
		t.Fatalf("clean run reported mismatches: %v", mismatches)
	}
	if checks < seedResources+verifySamples {
		t.Fatalf("only %d checks made", checks)
	}
}

func TestVerifyCatchesADroppedAppend(t *testing.T) {
	// Lose the URI write of one seeded resource: acknowledged, never
	// stored. Every published resource is resolved, so it must show.
	_, l := localOpList()
	victim := l.resources[l.seeding[7].res]
	store := &droppingStore{Store: dht.NewLocal(), drop: core.BlockKey(victim.name, core.BlockResourceURI)}
	_, mismatches := runLocal(t, store)
	if !store.dropped {
		t.Fatal("the append to drop never came")
	}
	if len(mismatches) != 1 {
		t.Fatalf("one acknowledged append was dropped; verification reported %v", mismatches)
	}
}

// recordedClient answers read-backs from fixed tables.
type recordedClient struct {
	client
	uris map[string]string
	tags map[string][]dharma.Weighted
}

func (c recordedClient) resolveURI(_ context.Context, r string) (string, error) {
	return c.uris[r], nil
}
func (c recordedClient) tagsOf(_ context.Context, r string) ([]dharma.Weighted, error) {
	return c.tags[r], nil
}

func TestVerifyComparesWeightsWithTheModel(t *testing.T) {
	l := opList{resources: []resource{{name: "res-a", uri: "urn:a", pool: [poolSize]uint16{1, 2, 3, 4, 5, 6}}}}
	model := newShadow(l)
	model.apply(op{kind: opInsert, res: 0})       // tags 1, 2, 3
	model.apply(op{kind: opTag, res: 0, slot: 1}) // tag 2 again
	model.apply(op{kind: opTag, res: 0, slot: 4}) // tag 5, new
	c := recordedClient{
		uris: map[string]string{"res-a": "urn:a"},
		tags: map[string][]dharma.Weighted{"res-a": {
			{Name: tagNames[1], Weight: 1}, {Name: tagNames[2], Weight: 2},
			{Name: tagNames[3], Weight: 4}, {Name: tagNames[5], Weight: 1},
		}},
	}
	if checks, mismatches := model.verify(context.Background(), c, 1); checks != 2 || len(mismatches) != 0 {
		t.Fatalf("faithful read-back: %d checks, mismatches %v", checks, mismatches)
	}
	// A lost "+1 token": the weight falls below the model's.
	c.tags["res-a"][1].Weight = 1
	if _, mismatches := model.verify(context.Background(), c, 1); len(mismatches) != 1 {
		t.Fatalf("short weight: mismatches %v, want one", mismatches)
	}
	c.tags["res-a"][1].Weight = 2
	c.uris["res-a"] = "urn:other"
	if _, mismatches := model.verify(context.Background(), c, 1); len(mismatches) != 1 {
		t.Fatalf("wrong URI: mismatches %v, want one", mismatches)
	}
}
