package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"dharma"
)

const (
	warmupShare = 0.05 // of the measured time, run untimed first
	// setup_s is the median of several set-ups in one run: at least
	// minSetups, and for set-ups that take milliseconds as many more (up
	// to maxSetups) as fit in setupBudget, so that a cheap set-up is not
	// reported from three noisy samples.
	minSetups   = 5
	maxSetups   = 15
	setupBudget = time.Second
	// spanBudget is the traced run's span buffer; spanMargin is the room
	// one more op must be sure to find in it (a 6-step navigate is ~750
	// spans), so the loop stops tracing before a span could be dropped.
	spanBudget = 2 << 20
	spanMargin = 4096
)

// runner drives one booted system through the op list: one closed-loop
// client, the next call issued when the previous one returns.
type runner struct {
	sys       *system
	resources []resource
	ops       []op
	chunkOps  int
	cursor    int // next op; wraps around a list the run outlasts
	model     *shadow
	// renew, when set, replaces sys and model with a freshly set-up
	// system before every chunk, and the chunk replays the op list from
	// its start (see workload.renew).
	renew func() error

	navSrc splitmix
	navRng *rand.Rand
	tagBuf [tagsPerInsert]string
}

func newRunner(sys *system, l opList, model *shadow, chunkOps int) *runner {
	r := &runner{sys: sys, resources: l.resources, ops: l.ops, model: model, chunkOps: chunkOps}
	r.navRng = rand.New(&r.navSrc)
	return r
}

// do issues one op through the client whose turn it is.
func (r *runner) do(ctx context.Context, i int, o op) (steps int, err error) {
	c := r.sys.clients[i%len(r.sys.clients)]
	switch o.kind {
	case opInsert:
		res := &r.resources[o.res]
		err = c.insert(ctx, res.name, res.uri, res.insertTags(&r.tagBuf))
	case opTag:
		res := &r.resources[o.res]
		err = c.tag(ctx, res.name, tagNames[res.pool[o.slot]])
	case opNavigate:
		r.navSrc.Seed(o.nav)
		steps, err = c.navigate(ctx, tagNames[o.tag], dharma.NavOptions{MaxSteps: navMaxSteps, Rng: r.navRng})
	case opSearch:
		err = c.search(ctx, tagNames[o.tag])
	}
	return steps, err
}

// sample is one timed op.
type sample struct {
	kind opKind
	d    time.Duration
}

// chunk is one fixed-size slice of a measured stretch: about half a
// second of ops, always in the exact mix. Every figure is taken per
// chunk, so that a run can report the level its chunks agree on and not
// an average over whatever the machine did meanwhile.
type chunk struct {
	ops        int
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	blockOps   int64
	p50        [numOpKinds]time.Duration // 0: the kind did not occur
}

// phase is what one timed stretch of ops measured.
type phase struct {
	ops, failed int
	firstErr    error
	wall        time.Duration
	chunks      []chunk
	lat         [numOpKinds][]time.Duration // ascending
	rpcs        int64                       // requests served, all nodes
	hotShare    float64                     // busiest node's share of rpcs
	walBytes    int64                       // udp-durable: data-dir growth
}

// run issues ops, chunk after chunk, until d has passed (or, traced,
// until the span buffer is nearly full) and returns what it measured.
// Process-wide counters are read at chunk boundaries only.
func (r *runner) run(d time.Duration, tr *tracer) (phase, error) {
	samples := make([]sample, 0, len(r.ops)) // touched only as far as the run gets
	served0 := make([]int64, len(r.sys.nodes))
	for i, n := range r.sys.nodes {
		served0[i] = n.RPCServed()
	}
	wal0 := dirBytes(r.sys.dataDir)
	if r.renew == nil {
		runtime.GC()
	}

	var p phase
	var m0, m1 runtime.MemStats
	bg := context.Background()
	start := time.Now()
	deadline := start.Add(d)
	full := false
	for !full && time.Now().Before(deadline) {
		if r.renew != nil {
			if err := r.renew(); err != nil {
				return p, err
			}
			r.cursor = 0
			runtime.GC() // the previous round's system is garbage: start clean
		}
		from := len(samples)
		blockOps0 := r.sys.blockOps()
		runtime.ReadMemStats(&m0)
		cpu0, t0 := cpuTime(), time.Now()
		for n := 0; n < r.chunkOps; n++ {
			if tr != nil && tr.used() > len(tr.spans)-spanMargin {
				full = true
				break
			}
			i := r.cursor
			o := r.ops[i%len(r.ops)]
			r.cursor++
			var (
				steps int
				err   error
				took  time.Duration
			)
			if tr == nil {
				t0 := time.Now()
				steps, err = r.do(bg, i, o)
				took = time.Since(t0)
			} else {
				ref := tr.begin(spanOp, uint8(o.kind), spanRef{idx: -1, op: -1})
				steps, err = r.do(withSpan(bg, ref), i, o)
				s := tr.end(ref)
				s.n = int32(steps)
				took = time.Duration(s.dur())
			}
			samples = append(samples, sample{o.kind, took})
			if err != nil {
				p.failed++
				if p.firstErr == nil {
					p.firstErr = fmt.Errorf("op %d (%s): %w", i, o.kind, err)
				}
				continue
			}
			r.model.apply(o)
		}
		if full {
			break // an incomplete chunk counts in the op totals only
		}
		c := chunk{ops: len(samples) - from, wall: time.Since(t0), cpu: cpuTime() - cpu0}
		runtime.ReadMemStats(&m1)
		c.mallocs = m1.Mallocs - m0.Mallocs
		c.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		c.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		c.blockOps = r.sys.blockOps() - blockOps0
		var byKind [numOpKinds][]time.Duration
		for _, s := range samples[from:] {
			byKind[s.kind] = append(byKind[s.kind], s.d)
		}
		for k := range byKind {
			slices.Sort(byKind[k])
			c.p50[k] = percentile(byKind[k], 0.50)
		}
		p.chunks = append(p.chunks, c)
	}
	p.wall = time.Since(start)

	if r.renew == nil {
		p.walBytes = dirBytes(r.sys.dataDir) - wal0
		var hottest int64
		for i, n := range r.sys.nodes {
			served := n.RPCServed() - served0[i]
			p.rpcs += served
			if served > hottest {
				hottest = served
			}
		}
		if p.rpcs > 0 {
			p.hotShare = float64(hottest) / float64(p.rpcs)
		}
	}

	p.ops = len(samples)
	for _, s := range samples {
		p.lat[s.kind] = append(p.lat[s.kind], s.d)
	}
	for k := range p.lat {
		slices.Sort(p.lat[k])
	}
	return p, nil
}

// Another tenant of the host only ever slows a chunk down, and the host
// does so in spells of seconds to minutes (a fixed SHA-256 loop runs at
// one of two speeds 27 % apart and switches between them every few
// seconds). A mean over the run then says how long the spells were, and
// even the median chunk moves with their share. A timing metric is
// therefore reported as the boundary of its favourable quartile of
// chunks — the throughput three chunks in four stay below, the latency
// and CPU time three in four stay above — which is the level of the
// undisturbed machine, without letting one lucky chunk set it.

// chunkQuantile is the q-quantile (nearest rank) over the phase's
// chunks of f, skipping the chunks for which f reports no value.
func (p *phase) chunkQuantile(q float64, f func(c *chunk) (float64, bool)) float64 {
	xs := make([]float64, 0, len(p.chunks))
	for i := range p.chunks {
		if x, ok := f(&p.chunks[i]); ok {
			xs = append(xs, x)
		}
	}
	slices.Sort(xs)
	return percentile(xs, q)
}

func (p *phase) opsPerSec() float64 {
	return p.chunkQuantile(0.75, func(c *chunk) (float64, bool) { return float64(c.ops) / c.wall.Seconds(), true })
}

func (p *phase) cpuMsPerOp() float64 {
	return p.chunkQuantile(0.25, func(c *chunk) (float64, bool) {
		return float64(c.cpu) / float64(time.Millisecond) / float64(c.ops), true
	})
}

func (p *phase) p50(k opKind) float64 {
	return p.chunkQuantile(0.25, func(c *chunk) (float64, bool) { return micros(c.p50[k]), c.p50[k] > 0 })
}

// perOp is a counter summed over the phase's chunks, per op of those
// chunks. Counts do not depend on the machine's speed: they are taken
// whole.
func (p *phase) perOp(f func(c *chunk) float64) float64 {
	var total float64
	ops := 0
	for i := range p.chunks {
		total += f(&p.chunks[i])
		ops += p.chunks[i].ops
	}
	return total / float64(ops)
}

// p99 is a kind's 99th percentile over the whole phase, or 0 when the
// kind has too few samples for one (fewer than ten would lie beyond it).
func (p *phase) p99(k opKind) float64 {
	if len(p.lat[k]) < minP99Samples {
		return 0
	}
	return micros(percentile(p.lat[k], 0.99))
}

// bootedSystem is a system after set-up: booted, seeded, prefilled.
type bootedSystem struct {
	*system
	model *shadow
}

func bootAndSeed(w workload, newDir scratchDirs, l opList, tr *tracer) (*bootedSystem, error) {
	sys, err := w.boot(newDir, tr)
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", w.name, err)
	}
	model := newShadow(l)
	if err := sys.seed(l, model); err != nil {
		sys.close()
		return nil, err
	}
	return &bootedSystem{sys, model}, nil
}

// setUp sets the workload's system up several times (once when once is
// set), keeps the last one and returns it with the median set-up time
// and the number of set-ups behind it.
func setUp(w workload, newDir scratchDirs, l opList, tr *tracer, once bool) (*bootedSystem, float64, int, error) {
	var (
		times []float64
		last  *bootedSystem
	)
	begun := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(begun) < setupBudget); i++ {
		if once && i > 0 {
			break
		}
		if last != nil {
			last.close()
		}
		t0 := time.Now()
		sys, err := bootAndSeed(w, newDir, l, tr)
		if err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = sys
	}
	return last, median(times), len(times), nil
}

// outcome is one measured stretch plus the bookkeeping around it.
type outcome struct {
	phase
	setupS     float64
	setups     int // set-ups setupS is the median of
	attempted  int // warm-up ops + measured ops + verification reads
	failed     int // failed ops + verification mismatches
	mismatches []string
	sys        *bootedSystem // still open: the caller closes it
}

// measure runs the whole sequence for one system: set-up, untimed
// warm-up, the measured stretch, read-back verification. The caller
// closes the returned outcome's system.
func measure(w workload, newDir scratchDirs, l opList, d time.Duration, tr *tracer, setUpOnce bool) (outcome, error) {
	sys, setupS, setups, err := setUp(w, newDir, l, tr, setUpOnce)
	if err != nil {
		return outcome{}, err
	}
	r := newRunner(sys.system, l, sys.model, w.chunkOps)
	if w.renew {
		r.renew = func() error {
			sys.close()
			if sys, err = bootAndSeed(w, newDir, l, tr); err != nil {
				return err
			}
			r.sys, r.model = sys.system, sys.model
			return nil
		}
	}
	o := outcome{setupS: setupS, setups: setups}
	warm, err := r.run(time.Duration(float64(d)*warmupShare), nil)
	if err == nil {
		o.phase, err = r.run(d, tr)
	}
	o.sys = sys
	if err == nil && len(o.chunks) == 0 {
		err = fmt.Errorf("%s: not one chunk of %d ops completed in %v", w.name, w.chunkOps, d)
	}
	if err != nil {
		sys.close()
		return o, err
	}
	checks, mismatches := sys.model.verify(context.Background(), sys.verifier, deploymentSeed)
	o.mismatches = mismatches
	o.attempted = warm.ops + o.ops + checks
	o.failed = warm.failed + o.phase.failed + len(mismatches)
	for _, e := range []error{warm.firstErr, o.firstErr} {
		if e != nil {
			fmt.Fprintln(os.Stderr, "bench: failed", e)
		}
	}
	for i, m := range mismatches {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "bench: … and %d more mismatches\n", len(mismatches)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "bench: mismatch:", m)
	}
	return o, nil
}

// endToEndValues computes every end-to-end metric of an untraced run.
func endToEndValues(o outcome) map[string]float64 {
	p := &o.phase
	v := map[string]float64{
		"ops_per_s":       p.opsPerSec(),
		"cpu_ms_per_op":   p.cpuMsPerOp(),
		"allocs_per_op":   p.perOp(func(c *chunk) float64 { return float64(c.mallocs) }),
		"alloc_kb_per_op": p.perOp(func(c *chunk) float64 { return float64(c.allocBytes) / 1024 }),
		"blockops_per_op": p.perOp(func(c *chunk) float64 { return float64(c.blockOps) }),
		"success_ratio":   1 - float64(o.failed)/float64(o.attempted),
		"setup_s":         o.setupS,
	}
	v["insert_p50_us"] = p.p50(opInsert)
	v["tag_p50_us"] = p.p50(opTag)
	return v
}

// report prints a phase for people: throughput and every latency as
// reported (the favourable quartile of chunks), and beside it the
// whole-phase figure and the highest percentile the sample count
// supports.
func (p *phase) report(title string) {
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.2fs (%.1f ops/s overall), %d chunks, upper-quartile chunk %.1f ops/s, %d failed\n",
		title, p.ops, p.wall.Seconds(), float64(p.ops)/p.wall.Seconds(), len(p.chunks), p.opsPerSec(), p.failed)
	for k := opKind(0); k < numOpKinds; k++ {
		lat := p.lat[k]
		line := fmt.Sprintf("  %-9s n=%-7d lower-quartile chunk p50=%9.1fus  overall p50=%9.1fus", k, len(lat), p.p50(k), micros(percentile(lat, 0.50)))
		if q := tailPercentile(len(lat)); q > 0 {
			line += fmt.Sprintf("  p%g=%9.1fus", q*100, micros(percentile(lat, q)))
		}
		fmt.Fprintln(os.Stderr, line)
	}
	// The chunk series, in time order: what the quartile figures are of.
	series := func(name, format string, f func(c *chunk) float64) {
		fmt.Fprintf(os.Stderr, "  chunks %-13s", name)
		for i := range p.chunks {
			fmt.Fprintf(os.Stderr, format, f(&p.chunks[i]))
		}
		fmt.Fprintln(os.Stderr)
	}
	series("ops/s", " %.0f", func(c *chunk) float64 { return float64(c.ops) / c.wall.Seconds() })
	series("cpu us/op", " %.1f", func(c *chunk) float64 { return float64(c.cpu) / 1e3 / float64(c.ops) })
	for k := opKind(0); k < numOpKinds; k++ {
		series(k.String()+" p50 us", " %.1f", func(c *chunk) float64 { return micros(c.p50[k]) })
	}
}
