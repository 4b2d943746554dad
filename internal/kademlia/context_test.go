package kademlia

import (
	"context"
	"errors"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// TestFindValueDeadlineBeatsUDPRetryTimer is the acceptance check of
// the context redesign at the transport layer: a lookup over real UDP
// whose only contact never answers must return the caller's deadline
// error well before the transport's own retry timeout expires. Before
// the redesign the Call waiter slept the full transport timeout (here
// deliberately 5s) regardless of the caller's budget.
func TestFindValueDeadlineBeatsUDPRetryTimer(t *testing.T) {
	node := NewNode(kadid.HashString("udp-ctx-node"), Config{K: 4, Alpha: 2})
	tr, err := wire.ListenUDP("127.0.0.1:0", node, wire.UDPOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	node.Attach(tr)
	defer node.Close()

	// The discard port: datagrams vanish, no response ever arrives. The
	// waiter is genuinely in flight until something aborts it.
	dead := wire.Contact{ID: kadid.HashString("dead-peer"), Addr: "127.0.0.1:9"}
	node.Table().Update(dead)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = node.FindValue(ctx, kadid.HashString("some-key"), 0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FindValue = %v, want DeadlineExceeded", err)
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("FindValue took %v: the 100ms deadline must abort the in-flight waiter, not wait out the 5s retry timer", elapsed)
	}
}

// TestStoreCtxCanceledReturnsCtxError: Store under an ended context
// reports the context error, not a misleading "no replica acknowledged".
func TestStoreCtxCanceledReturnsCtxError(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 8, Node: Config{K: 4, Alpha: 3}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Nodes[1].Store(ctx, kadid.HashString("k"), []wire.Entry{{Field: "f", Count: 1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Store under canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := cl.Nodes[1].FindValue(ctx, kadid.HashString("k"), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindValue under canceled ctx = %v, want context.Canceled", err)
	}
}

// TestCancelDoesNotEvictContacts: a cancelled exchange is not evidence
// the peer is dead — the routing table must keep the contact.
func TestCancelDoesNotEvictContacts(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 6, Node: Config{K: 4, Alpha: 2}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := cl.Nodes[2]
	before := n.Table().Len()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n.IterativeFindNode(ctx, kadid.HashString("anything"))
	if got := n.Table().Len(); got < before {
		t.Fatalf("canceled lookup evicted contacts: table %d -> %d", before, got)
	}
}
