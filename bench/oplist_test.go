package main

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestOpListIsDeterministicPerSeed(t *testing.T) {
	mix := weights{15, 45, 25, 15}
	a := generate(7, mix, 5000).encode()
	b := generate(7, mix, 5000).encode()
	if !bytes.Equal(a, b) {
		t.Fatal("one seed gave two different op lists")
	}
	if c := generate(8, mix, 5000).encode(); bytes.Equal(a, c) {
		t.Fatal("two seeds gave the same op list")
	}
}

// Every generated call must have its target by the time it is issued:
// a tag op names a resource already published, a navigate or search a
// tag already in use. This is what keeps a clean run free of failures.
func TestOpListNeverTargetsTheMissing(t *testing.T) {
	for _, w := range workloads {
		l := generate(3, w.mix, 20000)
		if len(l.seeding) != seedResources {
			t.Fatalf("%s: %d seeding inserts, want %d", w.name, len(l.seeding), seedResources)
		}
		published := make([]bool, len(l.resources))
		var tagLive [numTags]bool
		apply := func(i int, o op) {
			switch o.kind {
			case opInsert:
				if published[o.res] {
					t.Fatalf("%s op %d: resource %d published twice", w.name, i, o.res)
				}
				published[o.res] = true
				for _, tg := range l.resources[o.res].pool[:tagsPerInsert] {
					tagLive[tg] = true
				}
			case opTag:
				if !published[o.res] {
					t.Fatalf("%s op %d: tags resource %d before it was published", w.name, i, o.res)
				}
				tagLive[l.resources[o.res].pool[o.slot]] = true
			case opNavigate, opSearch:
				if !tagLive[o.tag] {
					t.Fatalf("%s op %d: %s from tag %d before it was used", w.name, i, o.kind, o.tag)
				}
			}
		}
		for i, o := range l.seeding {
			if o.kind != opInsert {
				t.Fatalf("%s: seeding op %d is a %s", w.name, i, o.kind)
			}
			apply(i, o)
		}
		// The mix is exact in every block, not just on average: chunks of
		// a run must not differ in what they are made of.
		for from := 0; from+mixBlock <= len(l.ops); from += mixBlock {
			var count [numOpKinds]int
			for i, o := range l.ops[from : from+mixBlock] {
				apply(from+i, o)
				count[o.kind]++
			}
			for k, share := range w.mix {
				if count[k]*100 != share*mixBlock {
					t.Fatalf("%s ops %d..%d: %d %s ops, want %d%%", w.name, from, from+mixBlock, count[k], opKind(k), share)
				}
			}
		}
		if w.chunkOps%mixBlock != 0 {
			t.Errorf("%s: a chunk of %d ops is not a whole number of mix blocks", w.name, w.chunkOps)
		}
		for i, r := range l.resources {
			seen := map[uint16]bool{}
			for _, tg := range r.pool {
				if seen[tg] {
					t.Fatalf("%s: resource %d has tag %d twice in its pool", w.name, i, tg)
				}
				seen[tg] = true
			}
		}
	}
}

// Tag ops stay with recently published resources, which is what keeps
// the tag blocks they touch — and so an op's cost — from growing.
func TestTagOpsTargetRecentResources(t *testing.T) {
	l := generate(5, weights{15, 45, 25, 15}, 20000)
	published := seedResources
	for i, o := range l.ops {
		switch o.kind {
		case opInsert:
			published++
		case opTag:
			if age := published - 1 - int(o.res); age < 0 || age >= recentWindow {
				t.Fatalf("op %d tags a resource %d publications old", i, age)
			}
		}
	}
}

func TestZipfDrawIsHeavyTailed(t *testing.T) {
	z := newZipfTable()
	rng := rand.New(rand.NewSource(1))
	var hits [numTags]int
	const n = 200000
	for i := 0; i < n; i++ {
		hits[z.draw(rng)]++
	}
	// P(rank k) ∝ (v+k)^-s: rank 0 against rank 9 is (11/2)^1.2 ≈ 7.7.
	want := math.Pow((zipfV+9)/zipfV, zipfS)
	if got := float64(hits[0]) / float64(hits[9]); math.Abs(got-want)/want > 0.1 {
		t.Fatalf("rank 0 drawn %.2f times as often as rank 9, want about %.2f", got, want)
	}
	if hits[numTags-1] == 0 {
		t.Fatal("the coldest tag was never drawn")
	}
}

func TestSplitmixReseedsRepeatably(t *testing.T) {
	var src splitmix
	rng := rand.New(&src)
	src.Seed(42)
	a := []int{rng.Intn(100), rng.Intn(100), rng.Intn(100)}
	src.Seed(42)
	for i, want := range a {
		if got := rng.Intn(100); got != want {
			t.Fatalf("draw %d after re-seeding: %d, want %d", i, got, want)
		}
	}
}
