package dharma_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dharma"
)

// replayFingerprint runs one seeded schedule — inserts, tags and search
// steps on a lossy 16-node overlay, with two maintenance rounds on every
// peer between them — and renders everything it can observe: each op's
// error, each search step's answer, each round's report and every
// peer's Stats.
func replayFingerprint(t *testing.T, seed int64) string {
	t.Helper()
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 16, DropRate: 0.05, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"rock", "jazz", "folk", "60s", "live", "ballad"}
	var b strings.Builder
	peer := func() *dharma.Peer { return sys.Peer(rng.Intn(sys.Size())) }
	ops := func(phase int) {
		for i := range 12 {
			r := fmt.Sprintf("r%d-%d", phase, i)
			err := peer().InsertResource(ctx, r, "uri:"+r, []string{tags[rng.Intn(len(tags))], tags[rng.Intn(len(tags))]})
			fmt.Fprintf(&b, "insert %s: %v\n", r, err)
			err = peer().Tag(ctx, r, tags[rng.Intn(len(tags))])
			fmt.Fprintf(&b, "tag %s: %v\n", r, err)
		}
		for _, tag := range tags {
			related, resources, err := peer().SearchStep(ctx, tag)
			fmt.Fprintf(&b, "search %s: %v %v %v\n", tag, related, resources, err)
		}
	}
	ops(0)
	for round := range 2 {
		for i, p := range sys.Peers() {
			r, err := p.MaintainOnce(ctx)
			fmt.Fprintf(&b, "maintain %d/%d: %+v %v\n", round, i, r, err)
		}
		ops(round + 1)
	}
	for i, p := range sys.Peers() {
		fmt.Fprintf(&b, "stats %d: %+v\n", i, p.Stats())
	}
	return b.String()
}

// TestSeededRunReplays: a seeded schedule with packet loss and
// maintenance replays exactly. The schedule is sequential under a
// context that cannot end, so the simulated network's drop rolls come
// in one order only if every node walks its blocks in one order.
func TestSeededRunReplays(t *testing.T) {
	first := replayFingerprint(t, 7)
	if second := replayFingerprint(t, 7); second != first {
		a, b := strings.Split(first, "\n"), strings.Split(second, "\n")
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("replay diverged at line %d:\n first: %s\nsecond: %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("replay diverged: %d lines, then %d", len(a), len(b))
	}
}
