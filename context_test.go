package dharma

// Cancellation and deadline semantics of the context-first API, end to
// end: a deadline or cancellation must abort the in-flight overlay RPC
// waiters — not merely skip the next hop — so operations stuck behind a
// non-answering endpoint return as soon as the caller gives up. On the
// simulated network there is no RPC timeout at all (a hung handler
// blocks forever), which makes these tests strict: without waiter
// aborts they would deadlock, not just run slow.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dharma/internal/core"
	"dharma/internal/kadid"
	"dharma/internal/search"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// hangReplica attaches an endpoint to sys's network that accepts RPCs
// and never answers, and plants it in peer p's routing table under
// exactly the identifier id — so it sorts first for lookups of id and
// lands in the first query batch. The returned release function
// unblocks every captured handler goroutine.
func hangReplica(sys *System, p *Peer, id kadid.ID, addr string) (release func()) {
	block := make(chan struct{})
	sys.Network().Attach(simnet.Addr(addr), simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) {
			<-block
			return nil, errors.New("hung")
		}))
	p.Node.Table().Update(wire.Contact{ID: id, Addr: addr})
	return func() { close(block) }
}

// TestSearchStepDeadlineAbortsInFlightRPC: a context deadline on a
// lookup whose replica set includes a non-answering endpoint surfaces
// context.DeadlineExceeded promptly. The hung endpoint would otherwise
// block the lookup round forever.
func TestSearchStepDeadlineAbortsInFlightRPC(t *testing.T) {
	sys, err := NewSystem(Config{Nodes: 12, Mode: Approximated, K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Peer(0)
	// Publish first: the insert runs under no deadline and must not
	// touch the hung endpoint.
	if err := p.InsertResource(context.Background(), "song", "uri:song", []string{"rock", "60s"}); err != nil {
		t.Fatal(err)
	}

	key := core.BlockKey("rock", core.BlockTagNeighbors)
	release := hangReplica(sys, p, key, "hung-replica")
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = p.SearchStep(ctx, "rock")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SearchStep against hung replica: err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("SearchStep took %v; the 100ms deadline should have aborted the in-flight RPC", elapsed)
	}
}

// TestNavigateCancelMidWalk: cancelling the context while a Navigate is
// blocked inside a step returns promptly with context.Canceled and the
// Canceled termination reason.
func TestNavigateCancelMidWalk(t *testing.T) {
	sys, err := NewSystem(Config{Nodes: 12, Mode: Approximated, K: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Peer(0)
	for _, r := range []string{"r1", "r2", "r3"} {
		if err := p.InsertResource(context.Background(), r, "uri:"+r, []string{"rock", "indie", "live"}); err != nil {
			t.Fatal(err)
		}
	}

	key := core.BlockKey("rock", core.BlockTagNeighbors)
	release := hangReplica(sys, p, key, "hung-nav")
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := p.Navigate(ctx, "rock", First, NavOptions{MinResources: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Navigate: err = %v, want context.Canceled", err)
	}
	if res.Reason != search.Canceled {
		t.Fatalf("Navigate reason = %v, want canceled", res.Reason)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Navigate took %v after a 50ms cancel; the walk did not abort its in-flight RPC", elapsed)
	}
}

// TestOperationsHonorPreCanceledContext: every facade operation refuses
// an already-ended context up front with its error.
func TestOperationsHonorPreCanceledContext(t *testing.T) {
	sys, err := NewSystem(Config{Nodes: 8, Mode: Approximated, K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Peer(0)
	if err := p.InsertResource(context.Background(), "r", "uri:r", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if err := p.Tag(ctx, "r", "c"); !errors.Is(err, context.Canceled) {
		t.Errorf("Tag: %v, want Canceled", err)
	}
	if _, _, err := p.SearchStep(ctx, "a"); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchStep: %v, want Canceled", err)
	}
	if _, err := p.ResolveURI(ctx, "r"); !errors.Is(err, context.Canceled) {
		t.Errorf("ResolveURI: %v, want Canceled", err)
	}
	if _, err := p.TagsOf(ctx, "r"); !errors.Is(err, context.Canceled) {
		t.Errorf("TagsOf: %v, want Canceled", err)
	}
	if _, err := p.Neighbors(ctx, "a"); !errors.Is(err, context.Canceled) {
		t.Errorf("Neighbors: %v, want Canceled", err)
	}
	if err := p.InsertResource(ctx, "r2", "uri:r2", []string{"a"}); !errors.Is(err, context.Canceled) {
		t.Errorf("InsertResource: %v, want Canceled", err)
	}
	if _, err := p.Navigate(ctx, "a", First, NavOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Navigate: %v, want Canceled", err)
	}
}

// TestNewSystemPartialFailureShutsDownCluster: when an engine fails to
// construct after the overlay booted, NewSystem must shut the cluster
// down — otherwise every durable node leaks its open write-ahead log
// (observable as the WAL flusher goroutines that only exit on Close).
func TestNewSystemPartialFailureShutsDownCluster(t *testing.T) {
	dir := t.TempDir()
	before := runtime.NumGoroutine()

	// Approximated mode with K < 0 survives withDefaults but fails
	// core.NewEngine — after the 8 durable nodes are already serving.
	_, err := NewSystem(Config{
		Nodes: 8, Mode: Approximated, K: -1,
		DataDir: dir, NoFsync: true, Seed: 21,
	})
	if err == nil {
		t.Fatal("NewSystem with invalid engine config: want error")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failed NewSystem leaked goroutines: %d before, %d after (WAL flushers not closed)",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The WALs were closed cleanly: the same DataDir boots again.
	sys, err := NewSystem(Config{Nodes: 8, DataDir: dir, NoFsync: true, Seed: 21})
	if err != nil {
		t.Fatalf("reboot over the same DataDir: %v", err)
	}
	sys.Shutdown()
}

// TestPeerStatsSnapshot: the consolidated Stats() snapshot agrees with
// the per-layer counters it replaces.
func TestPeerStatsSnapshot(t *testing.T) {
	sys, err := NewSystem(Config{Nodes: 8, Mode: Approximated, K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Peer(2)
	if err := p.InsertResource(context.Background(), "r", "uri:r", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Tag(context.Background(), "r", "c"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.SearchStep(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.Lookups == 0 || st.Appends == 0 || st.Gets == 0 {
		t.Fatalf("zero op counters after traffic: %+v", st)
	}
	if st.Lookups != st.Appends+st.Gets {
		t.Fatalf("Lookups = %d, want Appends+Gets = %d", st.Lookups, st.Appends+st.Gets)
	}
	if st.Lookups != p.Lookups() {
		t.Fatalf("Stats().Lookups = %d disagrees with Lookups() = %d", st.Lookups, p.Lookups())
	}
	if st.NodeLookups == 0 {
		t.Fatalf("NodeLookups = 0 after overlay traffic: %+v", st)
	}
	if sys.Network().Counters().Calls == 0 {
		t.Fatalf("no RPC sent after overlay traffic: %+v", st)
	}
	// Some peer served the replica RPCs this peer issued.
	served := int64(0)
	for _, q := range sys.Peers() {
		served += q.Stats().RPCServed
	}
	if served == 0 {
		t.Fatalf("no peer served any RPC after overlay traffic")
	}
}
