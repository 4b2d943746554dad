package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The vocabulary every workload draws from.
//
// Tags: 256, with Zipf popularity (heavy-tailed, after Cattuto et al.).
//
// Resources: an open stream — every insert publishes a new name, as
// users keep publishing new resources. Each resource has a fixed pool of
// poolSize tags, drawn by popularity: an insert publishes it with the
// first tagsPerInsert of them, and later tag ops add (or re-add) tags
// from the pool, because the set of tags a resource attracts stabilises
// after its first few annotations. Tag ops go to one of the recentWindow
// most recently published resources. Together these keep the cost of an
// op stationary over a run: with a closed set of resources tagged at
// random, every resource's tag block keeps growing, and the same run
// measured 27k ops/s in its first second and 15k in its twentieth.
const (
	numTags       = 256
	zipfS         = 1.2
	zipfV         = 2.0
	poolSize      = 6
	tagsPerInsert = 3
	recentWindow  = 64
	seedResources = 256 // published during set-up so every op has a target
	navMaxSteps   = 6
	// mixBlock is the stratum of the op mix: every mixBlock consecutive
	// ops hold each kind in exactly its share (all four mixes divide 20),
	// so that a chunk of a run never differs from another in its mix.
	mixBlock = 20
)

type opKind uint8

const (
	opInsert opKind = iota
	opTag
	opNavigate
	opSearch
	numOpKinds
)

var opKindNames = [numOpKinds]string{"insert", "tag", "navigate", "search"}

func (k opKind) String() string { return opKindNames[k] }

// op is one generated call. Insert publishes resource res with the
// first tagsPerInsert tags of its pool; tag adds pool tag number slot to
// res; navigate and search start from tag; navigate seeds its Random
// strategy from nav.
type op struct {
	kind opKind
	slot uint8
	tag  uint16
	res  uint32
	nav  int64
}

// weights are the op mix in percent, indexed by opKind.
type weights [numOpKinds]int

// Tag names are built once: formatting them per op would charge the
// benchmark's own allocations to the system under test.
var tagNames [numTags]string

func init() {
	for i := range tagNames {
		tagNames[i] = fmt.Sprintf("tag-%03d", i)
	}
}

// zipfTable is the cumulative distribution P(rank ≤ k) ∝ Σ (v+k)^-s
// over the tag ranks; a draw is one uniform variate and a binary search.
type zipfTable [numTags]float64

func newZipfTable() *zipfTable {
	var z zipfTable
	sum := 0.0
	for k := range z {
		sum += math.Pow(zipfV+float64(k), -zipfS)
		z[k] = sum
	}
	for k := range z {
		z[k] /= sum
	}
	return &z
}

func (z *zipfTable) draw(rng *rand.Rand) uint16 {
	k := sort.SearchFloat64s(z[:], rng.Float64())
	if k >= numTags {
		k = numTags - 1
	}
	return uint16(k)
}

// resource is one published name with its tag pool.
type resource struct {
	name, uri string
	pool      [poolSize]uint16
}

// insertTags names the tags the resource is published with, in buf.
func (r *resource) insertTags(buf *[tagsPerInsert]string) []string {
	for j := range buf {
		buf[j] = tagNames[r.pool[j]]
	}
	return buf[:]
}

// opList is everything a run feeds the system: the resources it will
// ever name, the inserts that seed it during set-up, then the timed
// calls in order.
type opList struct {
	resources []resource
	seeding   []op
	ops       []op
}

// generate builds the op list for one run from seed alone. It tracks
// what exists so far, so that no generated call can fail on a missing
// target: tag ops pick a resource already published, and navigate and
// search start from a tag already in use (falling back to the hottest
// tag, which seeding always creates).
func generate(seed int64, w weights, n int) opList {
	rng := rand.New(rand.NewSource(seed))
	zipf := newZipfTable()

	var (
		l        opList
		liveTags [numTags]bool
	)
	// publish creates the next resource and returns its insert.
	publish := func() op {
		i := len(l.resources)
		r := resource{name: fmt.Sprintf("res-%06d", i)}
		r.uri = "urn:dharma:" + r.name
		for j := range r.pool {
		redraw:
			t := zipf.draw(rng)
			for _, prev := range r.pool[:j] {
				if prev == t {
					goto redraw
				}
			}
			r.pool[j] = t
		}
		if i == 0 {
			// The first resource carries the hottest tags, so the fallback
			// tag of navigate and search (rank 0) always exists.
			r.pool = [poolSize]uint16{0, 1, 2, 3, 4, 5}
		}
		for _, t := range r.pool[:tagsPerInsert] {
			liveTags[t] = true
		}
		l.resources = append(l.resources, r)
		return op{kind: opInsert, res: uint32(i)}
	}
	for i := 0; i < seedResources; i++ {
		l.seeding = append(l.seeding, publish())
	}

	// One stratum of the mix, reshuffled for every mixBlock ops.
	var stratum []opKind
	for k, share := range w {
		if share*mixBlock%100 != 0 {
			panic(fmt.Sprintf("bench: mix %v does not divide a block of %d ops", w, mixBlock))
		}
		for i := 0; i < share*mixBlock/100; i++ {
			stratum = append(stratum, opKind(k))
		}
	}
	liveTag := func() uint16 {
		if t := zipf.draw(rng); liveTags[t] {
			return t
		}
		return 0
	}
	l.ops = make([]op, 0, n+mixBlock)
	for len(l.ops) < n {
		rng.Shuffle(len(stratum), func(i, j int) { stratum[i], stratum[j] = stratum[j], stratum[i] })
		for _, kind := range stratum {
			switch kind {
			case opInsert:
				l.ops = append(l.ops, publish())
			case opTag:
				recent := min(recentWindow, len(l.resources))
				res := len(l.resources) - 1 - rng.Intn(recent)
				slot := rng.Intn(poolSize)
				liveTags[l.resources[res].pool[slot]] = true
				l.ops = append(l.ops, op{kind: opTag, res: uint32(res), slot: uint8(slot)})
			case opNavigate:
				l.ops = append(l.ops, op{kind: opNavigate, tag: liveTag(), nav: rng.Int63()})
			case opSearch:
				l.ops = append(l.ops, op{kind: opSearch, tag: liveTag()})
			}
		}
	}
	return l
}

// encode serialises the op list; one seed must always give the same
// bytes, which is what the determinism test pins.
func (l opList) encode() []byte {
	out := make([]byte, 0, len(l.resources)*2*poolSize+(len(l.seeding)+len(l.ops))*16)
	for _, r := range l.resources {
		for _, t := range r.pool {
			out = binary.LittleEndian.AppendUint16(out, t)
		}
	}
	for _, part := range [][]op{l.seeding, l.ops} {
		for _, o := range part {
			out = append(out, byte(o.kind), o.slot)
			out = binary.LittleEndian.AppendUint16(out, o.tag)
			out = binary.LittleEndian.AppendUint32(out, o.res)
			out = binary.LittleEndian.AppendUint64(out, uint64(o.nav))
		}
	}
	return out
}

// prefillArc names the i-th arc written into a prefilled t̄ block. The
// names lie outside the resource stream: they exist only to make the
// block large.
func prefillArc(i int) string { return fmt.Sprintf("pre-%05d", i) }

// splitmix is a rand.Source64 that re-seeds in O(1), so each navigate
// can own a seeded stream without allocating a generator per op.
type splitmix struct{ x uint64 }

func (s *splitmix) Seed(seed int64) { s.x = uint64(seed) }
func (s *splitmix) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }
