package kademlia

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"

	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/persist"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// BootstrapMode selects how NewCluster populates routing tables.
type BootstrapMode int

const (
	// BootstrapIterative joins every node through node 0 with a
	// self-lookup, exactly as a real deployment would (the default).
	// Network-faithful, but the join RPCs make construction super-linear
	// in cluster size: fine to a few hundred nodes, minutes at 10k.
	BootstrapIterative BootstrapMode = iota
	// BootstrapWired computes every routing table offline from the full
	// membership — no join RPCs at all. Construction is O(n·log n):
	// member IDs are sorted once, and each node's bucket i is a
	// contiguous slice of the sorted order (the IDs sharing its first i
	// bits and differing at bit i), found by narrowing binary search.
	// Buckets hold the same neighbours a converged iterative join finds
	// (deep buckets exactly; shallow, over-full buckets a deterministic
	// stride sample), so lookup behaviour matches a warmed-up overlay.
	// This is what makes a 10k-node simnet buildable in seconds.
	BootstrapWired
)

// ClusterConfig describes an in-process overlay for experiments, tests
// and examples.
type ClusterConfig struct {
	// N is the number of nodes (at least 1).
	N int
	// Node is the per-node protocol configuration.
	Node Config
	// Net configures the simulated network.
	Net simnet.Config
	// Seed drives node identifier generation.
	Seed int64
	// Authority, when set, issues a Likir identity to every node and
	// enables credential checking cluster-wide (Node.CAPub is filled).
	Authority *likir.Authority
	// Bootstrap selects how routing tables are populated (zero value:
	// BootstrapIterative). Large clusters should use BootstrapWired.
	Bootstrap BootstrapMode
	// DataDir, when set, gives every node a durable block store under
	// DataDir/<node-address>: writes are logged before they are
	// acknowledged, Crash models a process kill, and Revive recovers
	// the node's blocks from disk instead of reusing the retained
	// in-memory store.
	DataDir string
	// Persist configures the per-node write-ahead logs (zero value:
	// defaults; simulated clusters usually set Sync: persist.SyncNone,
	// which still survives the simulated process kill).
	Persist persist.Options
}

// Cluster is a set of overlay nodes wired through one simulated
// network. Node 0 acts as the bootstrap seed.
//
// Direct access to Nodes is safe while membership is static (the common
// case: build the cluster, then drive it). When nodes churn in while
// other goroutines run — a load generator against a growing overlay —
// use AddNode together with NodeAt/Len/Snapshot, which share a lock.
type Cluster struct {
	Net   *simnet.Network
	Nodes []*Node

	dataDir     string          // root of per-node durable stores ("" = in-memory)
	persistOpts persist.Options // write-ahead-log options for durable stores

	mu     sync.RWMutex // guards Nodes and minted against concurrent membership changes
	minted int          // addresses handed out; never reused (even across RemoveNode/Crash), so joins cannot shadow a dead endpoint
}

// NewCluster builds and joins an N-node overlay. Every node bootstraps
// against node 0, which mirrors how a deployment uses a well-known
// rendezvous node. A failed NewCluster shuts down every node it built
// first, so it leaks no endpoints and no open write-ahead logs.
func NewCluster(cc ClusterConfig) (_ *Cluster, err error) {
	if cc.N < 1 {
		return nil, fmt.Errorf("kademlia: cluster needs at least 1 node, got %d", cc.N)
	}
	rng := rand.New(rand.NewSource(cc.Seed))
	net := simnet.New(cc.Net)
	cl := &Cluster{
		Net: net, Nodes: make([]*Node, cc.N), minted: cc.N,
		dataDir: cc.DataDir, persistOpts: cc.Persist,
	}
	defer func() {
		if err != nil {
			for _, n := range cl.Nodes {
				if n != nil {
					n.Shutdown() //nolint:errcheck // boot failed; the boot error is the one to report
				}
			}
		}
	}()

	for i := 0; i < cc.N; i++ {
		cfg := cc.Node
		var id kadid.ID
		if cc.Authority != nil {
			ident, err := cc.Authority.Issue(deterministicReader{rng}, fmt.Sprintf("node-%d", i))
			if err != nil {
				return nil, fmt.Errorf("kademlia: issue identity: %w", err)
			}
			cfg.Identity = ident
			cfg.CAPub = cc.Authority.PublicKey()
		} else {
			id = kadid.Random(rng)
		}
		addr := fmt.Sprintf("node-%d", i)
		if cl.dataDir != "" {
			store, _, err := OpenDurableStore(cl.nodeDir(addr), cl.persistOpts)
			if err != nil {
				return nil, fmt.Errorf("kademlia: node %d: %w", i, err)
			}
			cfg.Store = store
		}
		node := NewNode(id, cfg)
		tr := net.Attach(simnet.Addr(addr), node)
		node.Attach(tr)
		cl.Nodes[i] = node
	}

	if cc.Bootstrap == BootstrapWired {
		wireTables(cl.Nodes)
	} else {
		seed := cl.Nodes[0].Self()
		for i := 1; i < cc.N; i++ {
			if err := cl.Nodes[i].Bootstrap(context.Background(), []wire.Contact{seed}); err != nil {
				return nil, fmt.Errorf("kademlia: bootstrap node %d: %w", i, err)
			}
		}
	}
	return cl, nil
}

// wireTables fills every node's routing table directly from the full
// membership, the offline equivalent of a fully converged join.
//
// The member IDs are sorted once as 160-bit integers. For a node x,
// consider the range R_i of sorted members sharing x's first i bits:
// R_0 is everything, and R_{i+1} is the half of R_i on x's side of bit
// i. The other half — members sharing exactly i leading bits with x —
// is precisely x's bucket i, so one pass that repeatedly splits the
// current range at bit i (binary search inside the range) enumerates
// every non-empty bucket in O(log² n) per node, no RPCs.
//
// A bucket range with at most k members is inserted whole — deep
// buckets therefore hold exactly the node's true nearest neighbours. An
// over-full range contributes a deterministic stride sample of k, which
// mirrors the arbitrary-but-fixed subset a converged real overlay
// settles on.
func wireTables(nodes []*Node) {
	type member struct {
		id      kadid.ID
		contact wire.Contact
	}
	sorted := make([]member, len(nodes))
	for i, n := range nodes {
		sorted[i] = member{id: n.id, contact: n.Self()}
	}
	sort.Slice(sorted, func(i, j int) bool { return kadid.Cmp(sorted[i].id, sorted[j].id) < 0 })

	for _, n := range nodes {
		k := n.cfg.K
		lo, hi := 0, len(sorted) // bounds of R_i in sorted order
		for i := 0; i < kadid.Bits && hi-lo > 1; i++ {
			// Members with bit i clear sort before those with it set.
			mid := lo + sort.Search(hi-lo, func(j int) bool { return sorted[lo+j].id.Bit(i) })
			var blo, bhi int // bucket i: the half not containing x
			if n.id.Bit(i) {
				blo, bhi = lo, mid
				lo = mid
			} else {
				blo, bhi = mid, hi
				hi = mid
			}
			if span := bhi - blo; span <= k {
				for j := blo; j < bhi; j++ {
					n.table.Update(sorted[j].contact)
				}
			} else {
				step := span / k
				for j := 0; j < k; j++ {
					n.table.Update(sorted[blo+j*step].contact)
				}
			}
		}
	}
}

// AddNode joins one more node to a running cluster (churn-in). The new
// node bootstraps through the given existing member; ctx bounds the
// bootstrap — a join against a wedged seed returns when the caller
// gives up instead of hanging membership forever. AddNode is safe to
// call while other goroutines read membership through NodeAt/Len/
// Snapshot.
func (c *Cluster) AddNode(ctx context.Context, cfg Config, seed int64, via int) (*Node, error) {
	rng := rand.New(rand.NewSource(seed))

	c.mu.Lock()
	addr := simnet.Addr(fmt.Sprintf("node-%d", c.minted))
	c.minted++
	seedContact := c.Nodes[via].Self()
	c.mu.Unlock()

	if c.dataDir != "" {
		store, _, err := OpenDurableStore(c.nodeDir(string(addr)), c.persistOpts)
		if err != nil {
			return nil, err
		}
		cfg.Store = store
	}
	node := NewNode(kadid.Random(rng), cfg)

	node.Attach(c.Net.Attach(addr, node))
	if err := node.Bootstrap(ctx, []wire.Contact{seedContact}); err != nil {
		node.Shutdown() //nolint:errcheck // join failed; leave disk state for a later retry
		return nil, err
	}
	c.mu.Lock()
	c.Nodes = append(c.Nodes, node)
	c.mu.Unlock()
	return node, nil
}

// nodeDir is where a node's durable store lives; addresses are unique
// for the life of the cluster (minted, never reused), so the mapping is
// stable across crashes and revivals.
func (c *Cluster) nodeDir(addr string) string {
	return filepath.Join(c.dataDir, addr)
}

// Shutdown cleanly stops every current member: detach, flush and close
// durable stores. Crashed (removed-from-membership) nodes are not
// touched — their logs already ended, cleanly or not.
func (c *Cluster) Shutdown() {
	for _, n := range c.Snapshot() {
		n.Shutdown() //nolint:errcheck // best-effort teardown
	}
}

// NodeAt returns the i-th member under the membership lock, or nil when
// the index is out of range — membership shrinks under RemoveNode and
// Crash, so an index observed through Len may be stale by the time it
// is dereferenced.
func (c *Cluster) NodeAt(i int) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i < 0 || i >= len(c.Nodes) {
		return nil
	}
	return c.Nodes[i]
}

// Len returns the current membership size under the lock.
func (c *Cluster) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.Nodes)
}

// Snapshot returns a copy of the current membership slice; the copy is
// safe to range over while nodes keep joining.
func (c *Cluster) Snapshot() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Node(nil), c.Nodes...)
}

// Contacts returns the contact of every cluster node.
func (c *Cluster) Contacts() []wire.Contact {
	nodes := c.Snapshot()
	out := make([]wire.Contact, len(nodes))
	for i, n := range nodes {
		out[i] = n.Self()
	}
	return out
}

// ClosestGroundTruth returns the true k closest node contacts to target
// across the whole cluster — the oracle lookups are validated against.
func (c *Cluster) ClosestGroundTruth(target kadid.ID, k int) []wire.Contact {
	all := c.Contacts()
	sortContactsByDistance(all, target)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// deterministicReader adapts a *rand.Rand to io.Reader for key
// generation, keeping cluster construction reproducible under a seed.
type deterministicReader struct{ r *rand.Rand }

func (d deterministicReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}
