package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dharma/internal/kademlia"
)

// Churner drives membership churn against a live cluster while a
// workload runs: it crashes nodes, removes them gracefully, revives
// crashed ones, and joins fresh ones, at a configured event rate. The
// first Protected member indices — the nodes whose engines the load
// workers drive — are never touched, matching a deployment where
// long-lived clients watch a churning storage population.
//
// The churner is the only goroutine that shrinks membership (workers
// and maintenance rounds only read it, AddNode only grows it), so its
// index-based victim selection is race-free by construction.
type Churner struct {
	cl  *kademlia.Cluster
	cfg ChurnConfig

	baseline int // membership at construction; joins aim back at it
	maxDead  int

	mu      sync.Mutex
	crashed []*kademlia.Node

	crashes atomic.Int64
	leaves  atomic.Int64
	revives atomic.Int64
	joins   atomic.Int64
}

// ChurnConfig parameterises a churn run.
type ChurnConfig struct {
	// Rate is the target membership events per second (default 10).
	Rate float64
	// KillFraction is the fraction of the initial membership allowed to
	// be dead (crashed, unrevived) at once, in (0,1] (default 0.25).
	KillFraction float64
	// Protected is how many leading member indices are off-limits —
	// the bootstrap node and every node driven by a load worker.
	Protected int
	// Seed drives every random choice of the churner.
	Seed int64
	// Node configures freshly joining nodes (zero value: defaults).
	Node kademlia.Config
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Rate <= 0 {
		c.Rate = 10
	}
	if c.KillFraction <= 0 || c.KillFraction > 1 {
		c.KillFraction = 0.25
	}
	if c.Protected < 1 {
		c.Protected = 1
	}
	return c
}

// ChurnStats counts the membership events one churn run performed.
type ChurnStats struct {
	Crashes, Leaves, Revives, Joins int64
}

func (s ChurnStats) String() string {
	return fmt.Sprintf("%d crashes, %d graceful leaves, %d revives, %d joins",
		s.Crashes, s.Leaves, s.Revives, s.Joins)
}

// NewChurner prepares a churner over cl. Call Run to start.
func NewChurner(cl *kademlia.Cluster, cfg ChurnConfig) (*Churner, error) {
	cfg = cfg.withDefaults()
	n := cl.Len()
	if cfg.Protected >= n {
		return nil, fmt.Errorf("chaos: %d protected nodes leave no churnable ones (membership %d)", cfg.Protected, n)
	}
	maxDead := int(cfg.KillFraction * float64(n))
	if maxDead < 1 {
		maxDead = 1
	}
	if spare := n - cfg.Protected - 1; maxDead > spare {
		maxDead = spare
	}
	return &Churner{cl: cl, cfg: cfg, baseline: n, maxDead: maxDead}, nil
}

// Run performs membership events at the configured rate until ctx is
// cancelled. It blocks; run it in a goroutine alongside the workload.
func (c *Churner) Run(ctx context.Context) {
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	interval := time.Duration(float64(time.Second) / c.cfg.Rate)
	timer := time.NewTimer(c.wait(rng, interval))
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		c.step(ctx, rng)
		timer.Reset(c.wait(rng, interval))
	}
}

// wait jitters the inter-event interval by ±50% so events do not beat
// against the maintenance rounds' own cadence.
func (c *Churner) wait(rng *rand.Rand, interval time.Duration) time.Duration {
	return interval/2 + time.Duration(rng.Int63n(int64(interval)))
}

// step performs one membership event, honoring the invariants: at most
// maxDead crashed nodes at once, never below Protected+1 members, and
// joins steer the membership back towards the baseline.
func (c *Churner) step(ctx context.Context, rng *rand.Rand) {
	c.mu.Lock()
	dead := len(c.crashed)
	c.mu.Unlock()
	live := c.cl.Len()

	switch {
	case dead > 0 && rng.Float64() < 0.35:
		c.revive(ctx, rng)
	case live+dead < c.baseline:
		c.join(ctx, rng) // graceful leaves shrank the population; replace them
	case dead < c.maxDead && live > c.cfg.Protected+1:
		if rng.Float64() < 0.25 {
			c.leave(ctx, rng)
		} else {
			c.crash(rng)
		}
	case dead > 0:
		c.revive(ctx, rng)
	default:
		c.join(ctx, rng)
	}
}

// victim picks a random churnable member index; callers hold no lock,
// so the pick may go stale — the cluster returns an error then and the
// event is simply skipped.
func (c *Churner) victim(rng *rand.Rand) (int, bool) {
	n := c.cl.Len()
	if n <= c.cfg.Protected {
		return 0, false
	}
	return c.cfg.Protected + rng.Intn(n-c.cfg.Protected), true
}

func (c *Churner) crash(rng *rand.Rand) {
	i, ok := c.victim(rng)
	if !ok {
		return
	}
	n, err := c.cl.Crash(i)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.crashed = append(c.crashed, n)
	c.mu.Unlock()
	c.crashes.Add(1)
}

func (c *Churner) leave(ctx context.Context, rng *rand.Rand) {
	i, ok := c.victim(rng)
	if !ok {
		return
	}
	// A non-nil node means the member left, even when the handoff
	// report (ErrHandoffIncomplete) is non-nil — under churn an
	// unacked handoff is expected and healed by republish.
	if n, _ := c.cl.RemoveNode(ctx, i); n != nil {
		c.leaves.Add(1)
	}
}

func (c *Churner) revive(ctx context.Context, rng *rand.Rand) {
	c.mu.Lock()
	if len(c.crashed) == 0 {
		c.mu.Unlock()
		return
	}
	i := rng.Intn(len(c.crashed))
	n := c.crashed[i]
	c.crashed = append(c.crashed[:i], c.crashed[i+1:]...)
	c.mu.Unlock()
	if _, err := c.cl.Revive(ctx, n, 0); err != nil {
		// Bootstrap through node 0 failed; put the node back in the
		// crashed pool rather than losing track of it. On a durable
		// cluster the node's disk state is untouched, so the retry
		// recovers the same blocks.
		c.mu.Lock()
		c.crashed = append(c.crashed, n)
		c.mu.Unlock()
		return
	}
	c.revives.Add(1)
}

func (c *Churner) join(ctx context.Context, rng *rand.Rand) {
	if _, err := c.cl.AddNode(ctx, c.cfg.Node, rng.Int63(), 0); err == nil {
		c.joins.Add(1)
	}
}

// ReviveAll brings every still-crashed node back (used between load
// mixes, so each mix starts against a whole overlay). Nodes whose
// bootstrap fails stay in the crashed pool.
func (c *Churner) ReviveAll(ctx context.Context) {
	c.mu.Lock()
	pending := c.crashed
	c.crashed = nil
	c.mu.Unlock()
	for _, n := range pending {
		if _, err := c.cl.Revive(ctx, n, 0); err != nil {
			c.mu.Lock()
			c.crashed = append(c.crashed, n)
			c.mu.Unlock()
			continue
		}
		c.revives.Add(1)
	}
}

// DeadCount returns how many crashed nodes are currently unrevived.
func (c *Churner) DeadCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.crashed)
}

// Stats returns the membership events performed so far.
func (c *Churner) Stats() ChurnStats {
	return ChurnStats{
		Crashes: c.crashes.Load(),
		Leaves:  c.leaves.Load(),
		Revives: c.revives.Load(),
		Joins:   c.joins.Load(),
	}
}
