package kademlia

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"dharma/internal/kadid"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// Churn operations on a running cluster. A deployment loses nodes two
// ways — a graceful leave, where the departing node hands its blocks to
// the nodes that will be responsible for them, and a crash, where the
// node simply stops answering — and regains them through joins
// (AddNode) and recoveries (Revive). Together with each member's
// Node.MaintainOnce rounds these keep every block's replica set
// populated while membership moves underneath it.
//
// On a durable cluster (ClusterConfig.DataDir) the crash/revive pair
// models a real process death: Crash kills the node's write-ahead log
// the way SIGKILL would, and Revive builds a fresh node that recovers
// identity and blocks from disk — nothing of the crashed object's
// memory is reused.

// ErrHandoffIncomplete is wrapped by Handoff (and surfaced by
// RemoveNode) when some blocks could not be placed on any replica even
// after the bounded retry. The departure still completes; the blocks
// named in the error are only healed once other replicas republish.
var ErrHandoffIncomplete = errors.New("kademlia: handoff incomplete")

// Handoff reconciles every locally stored block with the k closest live
// nodes excluding the node itself — the departing half of a graceful
// leave. Each block goes through the anti-entropy summary exchange
// (syncBlock), so a replica that already agrees costs one digest round
// trip and a stale one receives only its delta. A block no replica
// acknowledges is retried once against a fresh lookup; if it still
// lands nowhere — or ctx ended before it was tried — it is named in the
// returned ErrHandoffIncomplete so the caller can see the leave was
// lossy-unless-republished. It returns how many blocks the node held
// and how many replica acknowledgements came back.
func (n *Node) Handoff(ctx context.Context) (blocks, acks int, err error) {
	var unacked []kadid.ID
	for _, key := range n.store.Keys() {
		blocks++
		got := 0
		// The first target set may have been stale under churn; one
		// bounded retry against a fresh lookup, then give up and report
		// rather than block the departure indefinitely.
		for try := 0; try < 2 && got == 0 && ctx.Err() == nil; try++ {
			got = n.syncBlock(ctx, key, n.IterativeFindNode(ctx, key))
		}
		if got == 0 {
			unacked = append(unacked, key)
		}
		acks += got
	}
	if len(unacked) > 0 {
		short := make([]string, 0, 4)
		for i, k := range unacked {
			if i == 4 {
				short = append(short, fmt.Sprintf("+%d more", len(unacked)-i))
				break
			}
			short = append(short, k.Short())
		}
		err = fmt.Errorf("%w: %d of %d blocks unacknowledged (%s)",
			ErrHandoffIncomplete, len(unacked), blocks, strings.Join(short, ", "))
	}
	return blocks, acks, err
}

// Close detaches the node from its transport; subsequent RPCs in either
// direction fail. It is safe to call on a node that was never attached.
// The block store is left untouched — use Shutdown for a clean stop
// that also closes a durable store.
func (n *Node) Close() error {
	n.detached.Store(true)
	n.selfMu.RLock()
	tr := n.transport
	n.selfMu.RUnlock()
	if tr == nil {
		return nil
	}
	return tr.Close()
}

// Shutdown is the clean stop: detach from the network, then flush and
// close the block store's write-ahead log (a no-op for in-memory
// stores). This is what a deployment runs on SIGINT/SIGTERM.
func (n *Node) Shutdown() error {
	cerr := n.Close()
	serr := n.store.Close()
	if cerr != nil {
		return cerr
	}
	return serr
}

// remove unlinks the i-th member under the lock and returns it. The
// minted address counter is deliberately untouched: addresses are never
// reissued after a removal, so a later AddNode cannot shadow a departed
// (or crashed-and-reviving) endpoint on the simulated network.
func (c *Cluster) remove(i int) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.Nodes) {
		return nil, fmt.Errorf("kademlia: no node at index %d (membership %d)", i, len(c.Nodes))
	}
	n := c.Nodes[i]
	c.Nodes = append(c.Nodes[:i], c.Nodes[i+1:]...)
	return n, nil
}

// RemoveNode gracefully removes the i-th member (churn-out): the node is
// dropped from the membership, hands its blocks off to the nodes now
// closest to their keys, and detaches from the network (closing its
// durable store cleanly, if it has one). The returned node is dead for
// overlay purposes; its address is never reused. A non-nil error
// alongside a non-nil node is the handoff report: the removal happened,
// but the named blocks were not acknowledged by any replica
// (ErrHandoffIncomplete) — callers that must not lose sole-copy blocks
// should check it.
//
// ctx bounds the handoff: when a receiving replica is wedged, the
// caller's deadline cuts the push short and the unacknowledged blocks
// are reported via ErrHandoffIncomplete — membership never hangs on a
// stuck peer. The node is removed and shut down regardless.
//
// Indices shift left past i, so concurrent callers that pick indices
// must tolerate the (nil, error) returned for a stale out-of-range
// index.
func (c *Cluster) RemoveNode(ctx context.Context, i int) (*Node, error) {
	n, err := c.remove(i)
	if err != nil {
		return nil, err
	}
	// Hand off while still attached, so the departing node can reach
	// the replicas that take over its blocks; then disappear.
	_, _, herr := n.Handoff(ctx)
	n.Shutdown() //nolint:errcheck // departing node; store close errors have no recipient
	return n, herr
}

// Crash abruptly kills the i-th member: no handoff, no goodbye — the
// endpoint is marked down and detached, exactly as if the process died.
// On a durable cluster the node's write-ahead log is killed the same
// way (staged unacknowledged writes drop, acknowledged ones stay on
// disk). The node object is returned so the caller can Revive it later;
// on a durable cluster it is only a handle (identity + address) — its
// in-memory state is abandoned, and revival reads the disk.
func (c *Cluster) Crash(i int) (*Node, error) {
	n, err := c.remove(i)
	if err != nil {
		return nil, err
	}
	addr := simnet.Addr(n.Self().Addr)
	c.Net.SetDown(addr, true)
	// Close the node's own endpoint too (which detaches it): a crashed
	// process sends nothing, and must not mistake its own send failures
	// for every peer being dead — the routing table has to survive the
	// crash alongside the store.
	n.Close()
	if c.dataDir != "" {
		n.store.SimulateCrash()
	}
	return n, nil
}

// Revive rejoins a previously crashed node at its original address and
// returns the live member. On an in-memory cluster that is the same
// object (its routing table and store survived in the retained node,
// the way a warm standby would); on a durable cluster revival is a
// process restart: a fresh node with the same identity recovers its
// blocks from the data directory — acknowledged writes and nothing
// else — and re-bootstraps through the via-th current member. Either
// way the revived node's pre-crash blocks converge with the live
// replicas through republish max-merges. ctx bounds the re-bootstrap.
func (c *Cluster) Revive(ctx context.Context, n *Node, via int) (*Node, error) {
	c.mu.RLock()
	if via < 0 || via >= len(c.Nodes) {
		c.mu.RUnlock()
		return nil, fmt.Errorf("kademlia: no bootstrap node at index %d", via)
	}
	seed := c.Nodes[via].Self()
	c.mu.RUnlock()

	addr := simnet.Addr(n.Self().Addr)
	node := n
	if c.dataDir != "" {
		var err error
		if node, err = c.start(addr, n.id, n.cfg); err != nil {
			return nil, fmt.Errorf("kademlia: revive %s: %w", addr, err)
		}
	} else {
		node.Attach(c.Net.Attach(addr, node))
	}
	c.Net.SetDown(addr, false)
	if err := node.Bootstrap(ctx, []wire.Contact{seed}); err != nil {
		node.Shutdown() //nolint:errcheck // disk state stays intact for the next attempt
		return nil, fmt.Errorf("kademlia: revive %s: %w", addr, err)
	}
	c.mu.Lock()
	c.Nodes = append(c.Nodes, node)
	c.mu.Unlock()
	return node, nil
}
