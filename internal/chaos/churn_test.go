package chaos

import (
	"context"
	"testing"
	"time"

	"dharma/internal/kademlia"
)

func TestChurnerRespectsProtectionAndKillCap(t *testing.T) {
	cl, err := kademlia.NewCluster(kademlia.ClusterConfig{
		N:    16,
		Node: kademlia.Config{K: 4, Alpha: 2},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	protected := make(map[*kademlia.Node]bool)
	for i := 0; i < 4; i++ {
		protected[cl.NodeAt(i)] = true
	}

	ch, err := NewChurner(cl, ChurnConfig{
		Rate:         400, // fast, so a short test sees many events
		KillFraction: 0.25,
		Protected:    4,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ch.Run(ctx)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := ch.Stats()
		if st.Crashes >= 3 && st.Revives >= 1 && st.Crashes+st.Leaves+st.Joins >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("churner made too little progress: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	// The kill cap held throughout (checked at the end: DeadCount can
	// only have been larger mid-run if it is larger now or a revive
	// happened, and the cap is enforced before every crash).
	if dead := ch.DeadCount(); dead > 4 {
		t.Fatalf("%d dead nodes exceeds kill cap", dead)
	}
	// Protected members never left the membership and still answer.
	for i := 0; i < 4; i++ {
		n := cl.NodeAt(i)
		if n == nil || !protected[n] {
			t.Fatalf("protected prefix disturbed at index %d", i)
		}
	}
	for p := range protected {
		if !cl.NodeAt(0).Ping(context.Background(), p.Self()) && cl.NodeAt(0) != p {
			t.Fatalf("protected node %s unreachable", p.Self().Addr)
		}
	}

	ch.ReviveAll(context.Background())
	if ch.DeadCount() != 0 {
		t.Fatalf("%d nodes still dead after ReviveAll", ch.DeadCount())
	}
	// Every member is live again and addresses stayed unique.
	seen := make(map[string]bool)
	for _, n := range cl.Snapshot() {
		addr := n.Self().Addr
		if seen[addr] {
			t.Fatalf("duplicate address %q after churn", addr)
		}
		seen[addr] = true
	}
}

func TestNewChurnerRejectsFullyProtectedCluster(t *testing.T) {
	cl, err := kademlia.NewCluster(kademlia.ClusterConfig{N: 3, Node: kademlia.Config{K: 2, Alpha: 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChurner(cl, ChurnConfig{Protected: 3}); err == nil {
		t.Fatal("churner accepted a cluster with no churnable nodes")
	}
}
