// Package dataset generates synthetic collaborative-tagging workloads
// shaped like the Last.fm snapshot the paper evaluates on (99 405
// users, ~11 M annotations, 1 413 657 resources, 285 182 tags). The real
// crawl is not redistributable, so experiments here run on a seeded
// generator that reproduces the *structural* properties §V-A reports:
//
//   - heavy-tailed degree distributions for Tags(r), Res(t) and N_FG(t)
//     (Table II, Figure 5);
//   - a strong core–periphery structure: ≈55 % of tags mark exactly one
//     resource, ≈40 % of resources carry exactly one tag, while a small
//     core of "rock"/"pop"-like tags labels a large share of everything.
//
// The model is a topic mixture: resources belong to topics, annotations
// pick a resource by Zipf popularity and then either a globally popular
// tag, a tag from the resource's topic pool (Zipf within the pool), or a
// fresh personal tag used exactly once. Every draw comes from one seeded
// source, so a Config is a complete, reproducible description of a
// workload.
package dataset

import (
	"fmt"
	"math/rand"

	"dharma/internal/folksonomy"
)

// Annotation is one ⟨user, item, tag⟩ triple of the raw dataset.
type Annotation struct {
	User     string
	Resource string
	Tag      string
}

// Config parameterises the generator.
type Config struct {
	Seed           int64
	Users          int
	Resources      int
	Annotations    int
	GlobalTags     int     // size of the popular core vocabulary
	Topics         int     // number of topic pools
	TagsPerTopic   int     // tags per topic pool
	ResourceZipfS  float64 // resource popularity exponent (>1)
	ResourceZipfV  float64 // resource Zipf offset (≥1); larger flattens the head
	TagZipfS       float64 // tag popularity exponent within pools (>1)
	SingletonProb  float64 // P(annotation invents a personal, one-shot tag)
	GlobalTagProb  float64 // P(annotation uses a global core tag)
	CrossTopicProb float64 // P(topic annotation borrows a neighbouring topic's tag)
}

// Tiny is a preset for unit tests: small enough to run in milliseconds,
// large enough to show the core–periphery shape.
func Tiny(seed int64) Config {
	return Config{
		Seed: seed, Users: 120, Resources: 300, Annotations: 2500,
		GlobalTags: 8, Topics: 6, TagsPerTopic: 18,
		ResourceZipfS: 1.25, ResourceZipfV: 4, TagZipfS: 1.3,
		SingletonProb: 0.03, GlobalTagProb: 0.22, CrossTopicProb: 0.08,
	}
}

// Small is the quick-experiment preset used by default test runs of the
// evaluation harness.
func Small(seed int64) Config {
	return Config{
		Seed: seed, Users: 1500, Resources: 6000, Annotations: 45000,
		GlobalTags: 25, Topics: 12, TagsPerTopic: 40,
		ResourceZipfS: 1.25, ResourceZipfV: 8, TagZipfS: 1.25,
		SingletonProb: 0.015, GlobalTagProb: 0.2, CrossTopicProb: 0.08,
	}
}

// LastFMScaled is the benchmark preset: a ≈30× reduction of the paper's
// crawl that preserves the annotations-per-resource and tags-per-
// resource ratios, sized to run the full experiment suite on a laptop.
func LastFMScaled(seed int64) Config {
	return Config{
		Seed: seed, Users: 8000, Resources: 45000, Annotations: 350000,
		GlobalTags: 60, Topics: 40, TagsPerTopic: 100,
		ResourceZipfS: 1.25, ResourceZipfV: 10, TagZipfS: 1.22,
		SingletonProb: 0.015, GlobalTagProb: 0.18, CrossTopicProb: 0.08,
	}
}

// Dataset is a generated workload: the raw annotation triples plus the
// vocabulary they draw from.
type Dataset struct {
	Config      Config
	Annotations []Annotation
	// TagNames is the set of tags actually used, in first-use order.
	TagNames []string
	// ResourceNames is the set of resources actually annotated, in
	// first-use order.
	ResourceNames []string
}

// Generate produces the workload described by cfg.
func Generate(cfg Config) *Dataset {
	if cfg.Resources <= 0 || cfg.Annotations <= 0 {
		panic("dataset: Resources and Annotations must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	resV := cfg.ResourceZipfV
	if resV < 1 {
		resV = 1
	}
	resZipf := rand.NewZipf(rng, cfg.ResourceZipfS, resV, uint64(cfg.Resources-1))
	globalZipf := rand.NewZipf(rng, cfg.TagZipfS, 1, uint64(max(cfg.GlobalTags-1, 1)))
	topicZipf := rand.NewZipf(rng, cfg.TagZipfS, 1, uint64(max(cfg.TagsPerTopic-1, 1)))

	// Resources are assigned topics with a mild skew so topic sizes vary.
	topicOf := make([]int, cfg.Resources)
	for i := range topicOf {
		a := rng.Intn(cfg.Topics)
		b := rng.Intn(cfg.Topics)
		topicOf[i] = min(a, b)
	}

	d := &Dataset{Config: cfg}
	seenTag := make(map[string]bool)
	seenRes := make(map[string]bool)
	touchTag := func(t string) {
		if !seenTag[t] {
			seenTag[t] = true
			d.TagNames = append(d.TagNames, t)
		}
	}
	touchRes := func(r string) {
		if !seenRes[r] {
			seenRes[r] = true
			d.ResourceNames = append(d.ResourceNames, r)
		}
	}

	singletons := 0
	d.Annotations = make([]Annotation, 0, cfg.Annotations)
	for i := 0; i < cfg.Annotations; i++ {
		ri := int(resZipf.Uint64())
		r := fmt.Sprintf("r%d", ri)
		user := fmt.Sprintf("u%d", rng.Intn(max(cfg.Users, 1)))

		var tag string
		switch p := rng.Float64(); {
		case p < cfg.SingletonProb:
			tag = fmt.Sprintf("p%d", singletons) // personal one-shot tag
			singletons++
		case p < cfg.SingletonProb+cfg.GlobalTagProb:
			tag = fmt.Sprintf("g%d", globalZipf.Uint64())
		default:
			topic := topicOf[ri]
			if rng.Float64() < cfg.CrossTopicProb {
				topic = (topic + 1 + rng.Intn(max(cfg.Topics-1, 1))) % cfg.Topics
			}
			tag = fmt.Sprintf("t%d.%d", topic, topicZipf.Uint64())
		}

		touchRes(r)
		touchTag(tag)
		d.Annotations = append(d.Annotations, Annotation{User: user, Resource: r, Tag: tag})
	}
	return d
}

// BuildGraph replays the whole workload through the theoretic
// maintenance rules of §III-B and returns the resulting TRG+FG. Every
// resource is created on first touch (with no tags), then each
// annotation is one tagging operation.
func (d *Dataset) BuildGraph() *folksonomy.Graph {
	g := folksonomy.New()
	for _, a := range d.Annotations {
		if !g.HasResource(a.Resource) {
			if err := g.InsertResource(a.Resource, "uri:"+a.Resource); err != nil {
				panic(err) // unreachable: guarded by HasResource
			}
		}
		if err := g.Tag(a.Resource, a.Tag); err != nil {
			panic(err) // unreachable: resource was just ensured
		}
	}
	return g
}

// Shuffled returns the annotation instances in a uniformly random order
// drawn from seed. This is the tagging schedule of the §V-B simulation:
// picking a resource proportionally to its remaining instances and then
// a tag proportionally to its remaining multiplicity is exactly a
// uniform random permutation of the instance multiset.
func (d *Dataset) Shuffled(seed int64) []Annotation {
	out := append([]Annotation(nil), d.Annotations...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Stats summarises the structural properties §V-A reports.
type Stats struct {
	Users, Resources, Tags, Annotations int

	// Degree samples for Table II / Figure 5.
	TagsPerResource []float64 // |Tags(r)| over resources
	ResPerTag       []float64 // |Res(t)| over tags
	NeighborsPerTag []float64 // |N_FG(t)| over tags

	// Core–periphery indicators (§V-A prose).
	SingletonTagFrac    float64 // tags marking exactly 1 resource
	SingleTagResourceFr float64 // resources carrying exactly 1 tag
}

// ComputeStats derives the §V-A statistics from a built graph.
func (d *Dataset) ComputeStats(g *folksonomy.Graph) Stats {
	st := Stats{
		Users:       d.Config.Users,
		Resources:   g.NumResources(),
		Tags:        g.NumTags(),
		Annotations: len(d.Annotations),
	}
	singleTagRes := 0
	for _, r := range g.ResourceNames() {
		deg := g.TagDegree(r)
		st.TagsPerResource = append(st.TagsPerResource, float64(deg))
		if deg == 1 {
			singleTagRes++
		}
	}
	singletonTags := 0
	for _, t := range g.TagNames() {
		rdeg := g.ResDegree(t)
		st.ResPerTag = append(st.ResPerTag, float64(rdeg))
		st.NeighborsPerTag = append(st.NeighborsPerTag, float64(g.NeighborDegree(t)))
		if rdeg == 1 {
			singletonTags++
		}
	}
	if g.NumTags() > 0 {
		st.SingletonTagFrac = float64(singletonTags) / float64(g.NumTags())
	}
	if g.NumResources() > 0 {
		st.SingleTagResourceFr = float64(singleTagRes) / float64(g.NumResources())
	}
	return st
}

// PopularTags returns the n tags with the largest Res(t) sets, the seed
// set of the §V-C convergence experiment ("the 100 most popular tags").
func PopularTags(g *folksonomy.Graph, n int) []string {
	ws := make([]folksonomy.Weighted, 0, g.NumTags())
	for _, t := range g.TagNames() {
		ws = append(ws, folksonomy.Weighted{Name: t, Weight: g.ResDegree(t)})
	}
	folksonomy.SortWeighted(ws)
	if len(ws) > n {
		ws = ws[:n]
	}
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}
