// Package obs is the telemetry core of the stack: a metrics registry
// whose record path allocates nothing, so instruments can sit inside
// the paths the scale refactor de-allocated (codec round trips,
// Table.Closest, lookup rounds) without moving their budgets off zero.
//
// Two instrument kinds cover the stack's needs:
//
//   - Counter: a monotone atomic total (requests served, bytes sent).
//   - Histogram: a fixed array of power-of-two buckets over int64
//     samples (latencies in nanoseconds, or unit-less values like
//     lookup rounds), with p50/p99 extraction. Recording is one atomic
//     add — no locks, no allocation, no time-window bookkeeping.
//
// A Registry names instruments and renders them in the Prometheus text
// exposition format (see expo.go); func-backed variants (CounterFunc,
// and GaugeFunc, the only gauge) adapt the pre-existing atomic counters
// and levels of other packages without double counting state.
//
// Every method is nil-receiver safe: a nil *Registry hands out nil
// instruments, and recording on a nil instrument is a no-op branch.
// Packages therefore thread an optional registry without guarding every
// record site — an un-instrumented deployment pays one predictable
// branch per record.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone total. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current total (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// kind discriminates registered instruments for exposition.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindCounterFunc
	kindGaugeFunc
	kindHistogram // duration histogram: samples are nanoseconds, exposed in seconds
	kindValueHist // unit-less histogram: samples exposed raw
)

// entry is one registered, named instrument.
type entry struct {
	name   string
	help   string
	kind   kind
	labels []string // label values for vec members ("" for scalars)
	label  string   // label name ("" for scalars)

	counter  *Counter
	fn       func() int64
	hists    []*Histogram // one for scalars, one per label value for vecs
	counters []*Counter   // per label value, for counter vecs
}

// Registry names instruments and renders them for scraping.
// Registration happens at setup time and may allocate; the instruments
// it hands out record without allocating. A nil *Registry is a valid
// "telemetry off" registry: every constructor returns a nil instrument.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// register installs e under its name, or returns the existing entry
// when the name is taken by the same instrument kind. A re-registration
// with a different kind panics: that is a wiring bug, not runtime
// input.
func (r *Registry) register(e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[e.name]; ok {
		if prev.kind != e.kind {
			panic(fmt.Sprintf("obs: %q re-registered as a different kind", e.name))
		}
		return prev
	}
	r.entries[e.name] = e
	return e
}

// Counter registers (or returns the existing) named counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	e := r.register(&entry{name: name, help: help, kind: kindCounter, counter: &Counter{}})
	return e.counter
}

// CounterFunc registers a counter whose value is read from f at scrape
// time — the adapter for totals other packages already keep in atomics.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	if r == nil {
		return
	}
	r.register(&entry{name: name, help: help, kind: kindCounterFunc, fn: f})
}

// GaugeFunc registers a gauge whose level is read from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	if r == nil {
		return
	}
	r.register(&entry{name: name, help: help, kind: kindGaugeFunc, fn: f})
}

// Histogram registers (or returns the existing) named duration
// histogram: samples are nanoseconds and the exposition renders bucket
// bounds and sums in seconds, the Prometheus convention.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	e := r.register(&entry{name: name, help: help, kind: kindHistogram, hists: []*Histogram{new(Histogram)}})
	return e.hists[0]
}

// ValueHistogram registers a unit-less histogram (lookup rounds,
// candidate counts): samples are exposed raw.
func (r *Registry) ValueHistogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	e := r.register(&entry{name: name, help: help, kind: kindValueHist, hists: []*Histogram{new(Histogram)}})
	return e.hists[0]
}

// HistogramVec registers a family of duration histograms distinguished
// by one label (e.g. per-RPC-kind serve latency). The label value set
// is fixed at registration; At(i) addresses the i-th member.
func (r *Registry) HistogramVec(name, help, label string, values []string) *HistogramVec {
	if r == nil {
		return nil
	}
	hs := make([]*Histogram, len(values))
	for i := range hs {
		hs[i] = new(Histogram)
	}
	e := r.register(&entry{
		name: name, help: help, kind: kindHistogram,
		label: label, labels: append([]string(nil), values...), hists: hs,
	})
	return &HistogramVec{hists: e.hists}
}

// CounterVec registers a family of counters distinguished by one label
// (e.g. per-RPC-kind request bytes). Like HistogramVec, the value set
// is fixed at registration and members are addressed by index.
func (r *Registry) CounterVec(name, help, label string, values []string) *CounterVec {
	if r == nil {
		return nil
	}
	cs := make([]*Counter, len(values))
	for i := range cs {
		cs[i] = &Counter{}
	}
	e := r.register(&entry{
		name: name, help: help, kind: kindCounter,
		label: label, labels: append([]string(nil), values...), counters: cs,
	})
	return &CounterVec{counters: e.counters}
}

// CounterVec is a fixed family of counters indexed by label position.
type CounterVec struct {
	counters []*Counter
}

// At returns the i-th member counter, nil when the vec is nil or the
// index is out of range (recording on it is then a no-op).
func (v *CounterVec) At(i int) *Counter {
	if v == nil || i < 0 || i >= len(v.counters) {
		return nil
	}
	return v.counters[i]
}

// HistogramVec is a fixed family of histograms indexed by label
// position. The record path is an array index — no map lookups.
type HistogramVec struct {
	hists []*Histogram
}

// At returns the i-th member histogram, nil when the vec is nil or the
// index is out of range (recording on it is then a no-op).
func (v *HistogramVec) At(i int) *Histogram {
	if v == nil || i < 0 || i >= len(v.hists) {
		return nil
	}
	return v.hists[i]
}

// snapshot returns the registered entries sorted by name; values are
// read later, per entry, so a scrape sees near-consistent state without
// holding the registry lock across user callbacks.
func (r *Registry) snapshot() []*entry {
	r.mu.Lock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
