package kademlia

import (
	"context"
	"fmt"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// fullBucketFixture attaches node a, k nodes that fill a's bucket 0 (the
// first of them least recently seen) and one more node of the same
// bucket range that a has never heard of.
func fullBucketFixture(t *testing.T) (net *simnet.Network, a *Node, members []*Node, newcomer *Node) {
	t.Helper()
	const k = 3
	net = simnet.New(simnet.Config{})
	rng := newRand(5)
	attach := func(id kadid.ID, name string) *Node {
		n := NewNode(id, Config{K: k, Alpha: 1})
		n.Attach(net.Attach(simnet.Addr(name), n))
		return n
	}
	a = attach(kadid.Random(rng), "a")
	for i := 0; i < k; i++ {
		m := attach(kadid.RandomInBucket(a.id, 0, rng), fmt.Sprintf("m%d", i))
		members = append(members, m)
		a.Table().Update(m.Self())
	}
	return net, a, members, attach(kadid.RandomInBucket(a.id, 0, rng), "newcomer")
}

// assertParkedThenPromoted checks the off-path liveness contract after
// one message from the newcomer met a's full bucket: the message cost
// exactly one exchange (no nested PING of the bucket's oldest member),
// the newcomer is not routable yet, and it takes the slot the moment
// the dead oldest member fails an exchange of its own.
func assertParkedThenPromoted(t *testing.T, net *simnet.Network, a, oldest, newcomer *Node, callsBefore int64) {
	t.Helper()
	if got := net.Counters().Calls - callsBefore; got != 1 {
		t.Fatalf("one message cost %d exchanges, want 1 (a nested liveness probe?)", got)
	}
	if a.Table().Contains(newcomer.id) {
		t.Fatal("newcomer entered a full bucket before any member was known dead")
	}
	if a.Ping(context.Background(), oldest.Self()) {
		t.Fatal("downed contact answered a ping")
	}
	if a.Table().Contains(oldest.id) || !a.Table().Contains(newcomer.id) {
		t.Fatalf("after the failed ping: dead oldest in table = %v, newcomer in table = %v; want false, true",
			a.Table().Contains(oldest.id), a.Table().Contains(newcomer.id))
	}
}

// A served request from an unknown contact whose bucket is full does
// only its own work: the handler never probes the bucket's oldest
// member, dead or alive.
func TestHandleRPCNeverProbesOnFullBucket(t *testing.T) {
	net, a, members, newcomer := fullBucketFixture(t)
	net.SetDown(simnet.Addr(members[0].Self().Addr), true)

	before := net.Counters().Calls
	var resp wire.Message
	err := newcomer.call(context.Background(), a.Self(), &wire.Message{Kind: wire.KindFindNode, Target: newcomer.id}, &resp)
	if err != nil || resp.Kind != wire.KindNodes {
		t.Fatalf("FIND_NODE: kind %v, err %v", resp.Kind, err)
	}
	assertParkedThenPromoted(t, net, a, members[0], newcomer, before)
}

// The client side mirrors it: a reply from an unknown contact whose
// bucket is full triggers no further call.
func TestCallNeverProbesOnFullBucket(t *testing.T) {
	net, a, members, newcomer := fullBucketFixture(t)
	net.SetDown(simnet.Addr(members[0].Self().Addr), true)

	before := net.Counters().Calls
	var resp wire.Message
	err := a.call(context.Background(), newcomer.Self(), &wire.Message{Kind: wire.KindFindNode, Target: a.id}, &resp)
	if err != nil || resp.Kind != wire.KindNodes {
		t.Fatalf("FIND_NODE: kind %v, err %v", resp.Kind, err)
	}
	assertParkedThenPromoted(t, net, a, members[0], newcomer, before)
}
