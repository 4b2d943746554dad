// Package admission is the server-side overload protection shared by
// both transports (the in-memory simnet and the UDP transport in
// internal/wire). A node past saturation must say "no" early and
// cheaply instead of queueing work without bound: DHARMA's cost bounds
// (Table I) are stated in lookups, and a lookup against a node that
// accepted ten thousand requests it cannot serve costs whatever the
// backlog costs.
//
// Two independent gates guard a handler:
//
//   - a bounded work queue — a counting semaphore capping how many
//     requests may be in the handler concurrently. This is the hard
//     bound that fixes the cancellation goroutine leak: a transport
//     spawns at most QueueDepth handler goroutines per node no matter
//     how many callers give up and abandon their exchanges.
//   - per-peer token buckets — a sustained request rate per remote
//     address, so one aggressive client cannot monopolize the queue
//     that every peer shares.
//
// A transport brackets each request with Controller.Enter and Leave,
// which allocate nothing. Rejected requests fail fast with ErrBusy
// (surfaced to overlay clients as wire.ErrBusy); well-behaved clients
// back off with jittered exponential retry and never treat a busy peer
// as dead.
package admission

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBusy is the early-rejection error: the server is saturated (work
// queue full) or the peer exceeded its rate allowance. Busy is an
// explicit, cheap answer — the opposite of a timeout — and busy does
// NOT mean dead: clients must retry with backoff rather than evict the
// peer from routing state.
var ErrBusy = errors.New("admission: server busy")

// DefaultQueueDepth is the per-node concurrent-request cap used when
// Config.QueueDepth is not positive. There is no unbounded setting: an
// unbounded handler pool is the bug this package exists to fix, so
// "unconfigured" must not mean "unprotected".
const DefaultQueueDepth = 1024

// Config parameterises a Controller.
type Config struct {
	// QueueDepth caps how many requests may be admitted concurrently
	// (≤ 0 = DefaultQueueDepth).
	QueueDepth int
	// PerPeerRate is the sustained admission rate per remote peer in
	// requests/second (0 = unlimited). A peer may burst max(8,
	// 2·PerPeerRate) requests before the sustained rate applies.
	PerPeerRate float64
	// Now is the clock (default time.Now); tests inject a fake.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats is a point-in-time snapshot of a controller's accounting.
type Stats struct {
	// Admitted counts requests that passed both gates.
	Admitted int64
	// RejectedQueue counts rejections by the full work queue,
	// RejectedRate by a peer's exhausted token bucket.
	RejectedQueue, RejectedRate int64
	// InFlight is the number of currently admitted, unreleased requests.
	InFlight int64
}

// Rejected is the total across both gates.
func (s Stats) Rejected() int64 { return s.RejectedQueue + s.RejectedRate }

// maxBuckets is the bucket count at which Enter starts forgetting
// idle peers, the same bound as the session cache's default
// (session.DefaultMaxSessions): one bucket per source address would
// otherwise grow without end under ephemeral client ports and spoofed
// sources.
const maxBuckets = 4096

// bucket is one peer's token bucket; lazily refilled on access.
type bucket struct {
	tokens float64
	last   time.Time
}

// Controller is one node's admission gate. It is safe for concurrent
// use by any number of transport goroutines.
type Controller struct {
	cfg   Config
	slots chan struct{} // one token per admitted, unreleased request

	admitted atomic.Int64
	rejQueue atomic.Int64
	rejRate  atomic.Int64
	inFlight atomic.Int64

	mu      sync.Mutex
	buckets map[string]*bucket
	burst   float64   // token-bucket capacity per peer
	swept   time.Time // last sweep of refilled buckets
}

// New builds a controller; the zero Config yields the default bounded
// queue with no per-peer rate limit.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, slots: make(chan struct{}, cfg.QueueDepth)}
	if cfg.PerPeerRate > 0 {
		c.buckets = make(map[string]*bucket)
		c.burst = float64(max(8, int(2*cfg.PerPeerRate)))
	}
	return c
}

// Enter asks to run one request from peer. On success the caller MUST
// call Leave exactly once when the handler finishes (however it
// finishes); on rejection it returns ErrBusy. Admission never blocks —
// a full queue is an immediate rejection, not a wait — so the
// transport's receive loop stays responsive no matter how deep the
// backlog is.
func (c *Controller) Enter(peer string) error {
	if !c.takeToken(peer) {
		c.rejRate.Add(1)
		return ErrBusy
	}
	select {
	case c.slots <- struct{}{}:
	default:
		c.rejQueue.Add(1)
		return ErrBusy
	}
	c.admitted.Add(1)
	c.inFlight.Add(1)
	return nil
}

// Leave ends one request that Enter admitted, freeing its queue slot.
func (c *Controller) Leave() {
	c.inFlight.Add(-1)
	<-c.slots
}

// Admit is Enter with Leave wrapped in a release function that is safe
// to call more than once; unlike the pair, it allocates.
func (c *Controller) Admit(peer string) (release func(), err error) {
	if err := c.Enter(peer); err != nil {
		return nil, err
	}
	var once sync.Once
	return func() { once.Do(c.Leave) }, nil
}

// takeToken spends one token from peer's bucket, reporting whether one
// was available. Buckets refill lazily at PerPeerRate up to the burst
// capacity; with no rate configured every request has a token.
func (c *Controller) takeToken(peer string) bool {
	if c.buckets == nil {
		return true
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.buckets[peer]
	if !ok {
		// Sweep at most once per token refill interval, so a flood of
		// new sources costs one pass per interval, not one per admit.
		if len(c.buckets) >= maxBuckets && now.Sub(c.swept).Seconds()*c.cfg.PerPeerRate >= 1 {
			c.sweep(now)
		}
		b = &bucket{tokens: c.burst, last: now}
		c.buckets[peer] = b
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * c.cfg.PerPeerRate
		b.tokens = min(b.tokens, c.burst)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweep forgets every bucket that has refilled to the burst. Such a
// bucket admits exactly what a fresh one would, so no admission
// decision changes. c.mu must be held.
func (c *Controller) sweep(now time.Time) {
	c.swept = now
	for peer, b := range c.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*c.cfg.PerPeerRate >= c.burst {
			delete(c.buckets, peer)
		}
	}
}

// Stats returns a snapshot of the controller's accounting.
func (c *Controller) Stats() Stats {
	return Stats{
		Admitted:      c.admitted.Load(),
		RejectedQueue: c.rejQueue.Load(),
		RejectedRate:  c.rejRate.Load(),
		InFlight:      c.inFlight.Load(),
	}
}
