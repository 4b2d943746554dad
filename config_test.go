package dharma

import (
	"context"
	"testing"
)

func TestConfigWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{
			name: "zero value fills every default",
			in:   Config{},
			want: Config{Nodes: 16, Mode: Approximated, K: 5, Replication: 8, Alpha: 3},
		},
		{
			name: "approximated mode defaults K",
			in:   Config{Mode: Approximated},
			want: Config{Nodes: 16, Mode: Approximated, K: 5, Replication: 8, Alpha: 3},
		},
		{
			name: "naive mode still gets a K for later mode switches",
			in:   Config{Mode: Naive, Nodes: 4},
			want: Config{Nodes: 4, Mode: Naive, K: 5, Replication: 8, Alpha: 3},
		},
		{
			name: "explicit values survive",
			in: Config{Nodes: 3, Mode: Approximated, K: 2, TopN: 10,
				Replication: 4, Alpha: 1, Seed: 9, DropRate: 0.1, MTU: 1400},
			want: Config{Nodes: 3, Mode: Approximated, K: 2, TopN: 10,
				Replication: 4, Alpha: 1, Seed: 9, DropRate: 0.1, MTU: 1400},
		},
		{
			name: "negative TopN (filtering disabled) is preserved",
			in:   Config{TopN: -1},
			want: Config{Nodes: 16, K: 5, TopN: -1, Replication: 8, Alpha: 3},
		},
		{
			name: "identity flag is preserved",
			in:   Config{WithIdentity: true},
			want: Config{Nodes: 16, K: 5, Replication: 8, Alpha: 3, WithIdentity: true},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.in.withDefaults(); got != c.want {
				t.Errorf("withDefaults() = %+v, want %+v", got, c.want)
			}
		})
	}
}

func TestSetDownAndRevive(t *testing.T) {
	sys, err := NewSystem(Config{Nodes: 12, Mode: Approximated, K: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Peer(0).InsertResource(context.Background(), "r", "uri:r", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}

	victim := 5
	contact := sys.Peer(victim).Node.Self()

	if !sys.Peer(1).Node.Ping(context.Background(), contact) {
		t.Fatal("victim unreachable before SetDown")
	}
	sys.SetDown(victim, true)
	if sys.Peer(1).Node.Ping(context.Background(), contact) {
		t.Fatal("victim still answering while down")
	}
	// The rest of the overlay keeps serving: replication covers the
	// crashed node.
	if _, err := sys.Peer(2).ResolveURI(context.Background(), "r"); err != nil {
		t.Fatalf("ResolveURI with a node down: %v", err)
	}
	if err := sys.Peer(3).Tag(context.Background(), "r", "c"); err != nil {
		t.Fatalf("Tag with a node down: %v", err)
	}

	// Revive: the node answers again and can itself operate.
	sys.SetDown(victim, false)
	if !sys.Peer(1).Node.Ping(context.Background(), contact) {
		t.Fatal("victim not answering after revive")
	}
	if _, err := sys.Peer(victim).ResolveURI(context.Background(), "r"); err != nil {
		t.Fatalf("revived node ResolveURI: %v", err)
	}
	if err := sys.Peer(victim).Tag(context.Background(), "r", "d"); err != nil {
		t.Fatalf("revived node Tag: %v", err)
	}

	// Down/revive must be idempotent.
	sys.SetDown(victim, false)
	if !sys.Peer(1).Node.Ping(context.Background(), contact) {
		t.Fatal("double revive broke the node")
	}
}
