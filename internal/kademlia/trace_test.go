package kademlia

import (
	"context"
	"strings"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/obs"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// slowTraceCluster boots a cluster whose every lookup crosses the slow
// threshold, so each one is captured.
func slowTraceCluster(t *testing.T, n int, seed int64) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		N:    n,
		Node: Config{K: 8, Alpha: 3, TraceSlow: time.Nanosecond},
		Seed: seed,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

func TestTraceLookupAssemblesHopTimeline(t *testing.T) {
	cl := slowTraceCluster(t, 32, 41)
	defer cl.Shutdown()
	key := kadid.HashString("rock|3")
	writer := cl.Nodes[3]
	if _, err := writer.Store(context.Background(), key, []wire.Entry{{Field: "pop", Count: 2}}); err != nil {
		t.Fatalf("Store: %v", err)
	}

	reader := cl.Nodes[17]
	if _, err := reader.FindValue(context.Background(), key, 0); err != nil {
		t.Fatalf("FindValue: %v", err)
	}
	recent := reader.RecentTraces()
	if len(recent) == 0 {
		t.Fatal("slow lookup was not captured")
	}
	trace := recent[0]
	if trace.TraceID == 0 {
		t.Fatal("trace has no ID")
	}
	if trace.Target != key || !trace.Value {
		t.Fatalf("trace misdescribes the lookup: %+v", trace)
	}
	if !trace.Found {
		t.Fatal("value lookup that found the block must record Found")
	}
	if trace.Rounds < 1 || len(trace.Spans) < trace.Rounds {
		t.Fatalf("timeline too thin: rounds=%d spans=%d", trace.Rounds, len(trace.Spans))
	}
	if trace.Tried != len(trace.Spans) {
		t.Fatalf("every tried candidate must have a span: tried=%d spans=%d", trace.Tried, len(trace.Spans))
	}
	sawValue := false
	lastRound := 0
	for i, sp := range trace.Spans {
		if sp.Round < lastRound {
			t.Fatalf("span %d out of round order: %+v", i, sp)
		}
		lastRound = sp.Round
		if sp.Round < 1 || sp.Round > trace.Rounds {
			t.Fatalf("span %d has round %d outside [1,%d]", i, sp.Round, trace.Rounds)
		}
		if sp.Kind != wire.KindFindValue {
			t.Fatalf("span %d kind = %v, want FIND_VALUE", i, sp.Kind)
		}
		if sp.Peer.Addr == "" || sp.Peer.ID.IsZero() {
			t.Fatalf("span %d has no peer: %+v", i, sp)
		}
		if sp.RTT < 0 || sp.Start < 0 {
			t.Fatalf("span %d has negative timing: %+v", i, sp)
		}
		if sp.Verdict == VerdictValue {
			sawValue = true
		}
	}
	if !sawValue {
		t.Fatal("a found lookup's timeline must contain a value span")
	}

	// Trace IDs tell captures apart: the ring's previous capture (the
	// reader's own join lookups) carries a different ID.
	if len(recent) < 2 || recent[1].TraceID == trace.TraceID {
		t.Fatalf("ring does not keep distinct traces: %d retained", len(recent))
	}
}

// TestTraceDeadPeerIsTimeout: a replica that never answers (here: set
// down on the simulated network) shows up in the slow-lookup trace as a
// "timeout" span, not as a generic error — over UDP, loss, a dead peer
// and a partition all look like silence.
func TestTraceDeadPeerIsTimeout(t *testing.T) {
	cl := slowTraceCluster(t, 16, 48)
	defer cl.Shutdown()
	key := kadid.HashString("jazz|1")
	if _, err := cl.Nodes[2].Store(context.Background(), key, []wire.Entry{{Field: "bop", Count: 1}}); err != nil {
		t.Fatalf("Store: %v", err)
	}
	reader := cl.Nodes[9]
	// The reader's closest known contact to the key is in its lookup's
	// first wave.
	dead := reader.Table().Closest(key, 1)[0]
	cl.Net.SetDown(simnet.Addr(dead.Addr), true)

	if _, err := reader.FindValue(context.Background(), key, 0); err != nil {
		t.Fatalf("FindValue with one replica down: %v", err)
	}
	recent := reader.RecentTraces()
	if len(recent) == 0 {
		t.Fatal("slow lookup was not captured")
	}
	for _, sp := range recent[0].Spans {
		if sp.Peer.ID == dead.ID {
			if sp.Verdict != VerdictTimeout {
				t.Fatalf("downed peer's span verdict = %q, want %q", sp.Verdict, VerdictTimeout)
			}
			return
		}
	}
	t.Fatalf("trace has no span for the downed peer %s: %+v", dead.ID.Short(), recent[0].Spans)
}

// TestTraceSlowCapture: with a 1ns threshold, every lookup is slower
// than the bar and must be captured and handed to OnTrace; a negative
// threshold captures nothing.
func TestTraceSlowCapture(t *testing.T) {
	var hooked []*LookupTrace
	cl := slowTraceCluster(t, 16, 45)
	defer cl.Shutdown()
	n := cl.Nodes[0]
	target := kadid.HashString("t")
	n.cfg.OnTrace = func(tr *LookupTrace) { hooked = append(hooked, tr) }
	n.IterativeFindNode(context.Background(), target)
	traces := n.RecentTraces()
	if len(traces) == 0 || traces[0].Target != target {
		t.Fatalf("slow capture missed: %d traces", len(traces))
	}
	if traces[0].Value {
		t.Fatalf("capture mislabeled: %+v", traces[0])
	}
	if len(hooked) != 1 || hooked[0] != traces[0] {
		t.Fatalf("OnTrace hook not called with the captured trace")
	}

	off, err := NewCluster(ClusterConfig{
		N:    16,
		Node: Config{K: 8, Alpha: 3, TraceSlow: -1},
		Seed: 44,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Shutdown()
	for i := 0; i < 5; i++ {
		off.Nodes[0].IterativeFindNode(context.Background(), target)
	}
	if got := len(off.Nodes[0].RecentTraces()); got != 0 {
		t.Fatalf("capture disabled but %d lookups captured", got)
	}
}

// TestNodeInstrumentation drives real traffic through an instrumented
// cluster and checks the metrics pipeline end to end, down to the
// Prometheus exposition.
func TestNodeInstrumentation(t *testing.T) {
	cl := newTestCluster(t, 24, 46)
	defer cl.Shutdown()
	reg := obs.NewRegistry()
	serving := cl.Nodes[1]
	client := cl.Nodes[2]
	serving.Instrument(reg)

	key := kadid.HashString("rock|3")
	if _, err := client.Store(context.Background(), key, []wire.Entry{{Field: "pop", Count: 2}}); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if _, err := client.FindValue(context.Background(), key, 0); err != nil {
		t.Fatalf("FindValue: %v", err)
	}
	// Drive lookups from the instrumented node too, for the lookup-side
	// instruments.
	serving.IterativeFindNode(context.Background(), key)

	if serving.metrics.lookupWall.Count() == 0 {
		t.Fatal("lookup wall histogram recorded nothing")
	}
	if serving.metrics.lookupRounds.Count() == 0 {
		t.Fatal("lookup rounds histogram recorded nothing")
	}
	// The serving node answered somebody's RPCs during all that traffic.
	var served uint64
	for k := wire.KindPing; k <= wire.KindSummaryReply; k++ {
		served += serving.metrics.kindHist(k).Count()
	}
	if served == 0 {
		t.Fatal("per-kind serve histograms recorded nothing")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"dharma_rpc_serve_seconds_bucket{kind=\"FIND_NODE\"",
		"dharma_lookup_wall_seconds_count",
		"dharma_lookups_total",
		"dharma_routing_table_peers",
		"dharma_store_append_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}
