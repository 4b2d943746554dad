package main

import (
	"math"
	"testing"
)

func TestSelfTimeCountsParallelChildrenOnce(t *testing.T) {
	// A Tag's reverse-arc updates: three block ops issued together,
	// overlapping on [20,50], after a sequential one on [0,10].
	children := []interval{{0, 10}, {20, 40}, {25, 50}, {30, 45}}
	if got := selfTime(0, 60, children); got != 20 {
		t.Fatalf("self time %d, want 20 (60 - [0,10] - [20,50])", got)
	}
	// The sum of the children (75) exceeds the parent: a naive
	// subtraction would go negative.
	if got := selfTime(0, 60, nil); got != 60 {
		t.Fatalf("self time without children %d, want 60", got)
	}
	// Children are clipped to the parent.
	if got := selfTime(10, 20, []interval{{0, 12}, {18, 30}}); got != 6 {
		t.Fatalf("self time with overhanging children %d, want 6", got)
	}
}

func TestWavesCountsMaximalOverlappingGroups(t *testing.T) {
	cases := []struct {
		name string
		rpcs []interval
		want int
	}{
		{"no RPCs", nil, 0},
		{"one RPC", []interval{{0, 5}}, 1},
		// A round-synchronous lookup: α=3 probes per round, next round
		// only after the whole wave returned.
		{"three rounds of three", []interval{
			{0, 4}, {0, 6}, {1, 5},
			{7, 9}, {7, 12}, {8, 10},
			{13, 15}, {13, 14}, {14, 18},
		}, 3},
		// Rolling parallelism: each probe starts when another ends, so the
		// chain never drains — one wave.
		{"rolling window", []interval{{0, 4}, {0, 6}, {3, 9}, {5, 11}, {8, 12}}, 1},
		// Back-to-back calls that merely touch are separate waves.
		{"touching", []interval{{0, 5}, {5, 9}}, 2},
		{"unsorted input", []interval{{13, 15}, {0, 4}, {7, 9}, {1, 5}}, 3},
	}
	for _, c := range cases {
		if got := waves(c.rpcs); got != c.want {
			t.Errorf("%s: %d waves, want %d", c.name, got, c.want)
		}
	}
}

// One traced op end to end: a tag with a get, then two parallel
// appends; RPCs under each; handlers under the RPCs.
func TestAnalyseAttributesAnOp(t *testing.T) {
	us := int64(1000)
	spans := []span{
		0: {kind: spanOp, sub: uint8(opTag), parent: -1, op: 0, start: 0, end: 100 * us},
		// get [10,30]: one RPC [12,28] with a handler [15,25].
		1: {kind: spanGet, parent: 0, op: 0, start: 10 * us, end: 30 * us, n: 1},
		2: {kind: spanRPC, sub: 6, parent: 1, op: 0, start: 12 * us, end: 28 * us, req: 70, resp: 300},
		3: {kind: spanHandler, sub: 6, parent: 2, op: 0, start: 15 * us, end: 25 * us},
		// two parallel appends [40,90] and [40,80]; the first has two
		// RPC waves, the second one.
		4: {kind: spanAppend, parent: 0, op: 0, start: 40 * us, end: 90 * us, n: 1},
		5: {kind: spanRPC, sub: 5, parent: 4, op: 0, start: 42 * us, end: 50 * us, req: 60, resp: 200},
		6: {kind: spanRPC, sub: 3, parent: 4, op: 0, start: 60 * us, end: 85 * us, req: 90, resp: 40},
		7: {kind: spanAppend, parent: 0, op: 0, start: 40 * us, end: 80 * us, n: 1},
		8: {kind: spanRPC, sub: 3, parent: 7, op: 0, start: 45 * us, end: 75 * us, req: 90, resp: 40},
	}
	rep := analyse(spans)
	want := map[string]float64{
		"core.op_self_us":                     30, // 100 - [10,30] - [40,90]
		"core.blockops_per_tag":               3,
		"dht.blockop_wall_share":              0.7,
		"dht.get_p50_us":                      20,
		"kademlia.rpcs_per_get":               1,
		"kademlia.rpcs_per_append":            1.5,
		"kademlia.waves_per_blockop":          4.0 / 3,
		"kademlia.lookup_self_us_per_blockop": (4 + 17 + 10) / 3.0,
		"kademlia.handle_find_value_us":       10,
		"simnet.call_self_us":                 (6 + 8 + 25 + 30) / 4.0,
		"wire.req_bytes_per_rpc":              (70 + 60 + 90 + 90) / 4.0,
		"wire.resp_bytes_per_rpc":             (300 + 200 + 40 + 40) / 4.0,
		"wire.udp_rtt_p50_us":                 0, // handler spans present: simnet
	}
	for name, w := range want {
		if got, ok := rep.values[name]; !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}

	b := rep.budget
	if b.ops != 1 || b.opWall != 100 {
		t.Fatalf("budget covers %d ops of %v us, want 1 of 100", b.ops, b.opWall)
	}
	// Busy: every self time in full; the two appends overlap, so the sum
	// exceeds the wall.
	if b.busy.core != 30 || b.busy.lookup != 31 || b.busy.rpc != 69 || b.busy.handler != 10 {
		t.Errorf("busy = %+v", b.busy)
	}
	// Wall: the rows must add up to the op's wall time.
	if math.Abs(b.residual()) > 1e-9 {
		t.Errorf("wall rows leave a residual of %v: %+v", b.residual(), b.wall)
	}
	if b.wall.core != 30 {
		t.Errorf("wall core = %v, want the op's exact self time 30", b.wall.core)
	}
	// The get runs alone: its 20us split 4 self, 6 transport, 10 handler.
	// The appends share [40,90] = 50us in proportion 50:40.
	wantLookup := 4 + 50*(50.0/90)*(17.0/50) + 50*(40.0/90)*(10.0/40)
	if math.Abs(b.wall.lookup-wantLookup) > 1e-9 {
		t.Errorf("wall lookup = %v, want %v", b.wall.lookup, wantLookup)
	}
	if math.Abs(b.wall.handler-10) > 1e-9 {
		t.Errorf("wall handler = %v, want 10", b.wall.handler)
	}
}

// Without handler spans (UDP) an RPC span is a round trip.
func TestAnalyseReportsRoundTripsWithoutHandlers(t *testing.T) {
	spans := []span{
		{kind: spanOp, sub: uint8(opSearch), parent: -1, start: 0, end: 900},
		{kind: spanGet, parent: 0, start: 0, end: 900, n: 1},
		{kind: spanRPC, parent: 1, start: 100, end: 400},
		{kind: spanRPC, parent: 1, start: 500, end: 700},
	}
	v := analyse(spans).values
	if v["wire.udp_rtt_p50_us"] != 0.2 || v["simnet.call_self_us"] != 0 {
		t.Fatalf("rtt p50 %v us, simnet self %v", v["wire.udp_rtt_p50_us"], v["simnet.call_self_us"])
	}
	if v["wire.udp_rtt_p99_us"] != 0 {
		t.Fatalf("p99 reported from %d samples", 2)
	}
}

func TestTracerLinksSpansThroughContext(t *testing.T) {
	tr := newTracer(8)
	op := tr.begin(spanOp, uint8(opTag), spanRef{idx: -1, op: -1})
	block := tr.begin(spanAppend, 0, op)
	rpc := tr.begin(spanRPC, 3, block)
	tr.end(rpc)
	tr.end(block)
	tr.end(op)
	spans := tr.spans[:tr.used()]
	if len(spans) != 3 {
		t.Fatalf("%d spans recorded", len(spans))
	}
	if spans[0].parent != -1 || spans[1].parent != 0 || spans[2].parent != 1 {
		t.Fatalf("parents %d %d %d", spans[0].parent, spans[1].parent, spans[2].parent)
	}
	for i, s := range spans {
		if s.op != 0 {
			t.Errorf("span %d belongs to op %d, want 0", i, s.op)
		}
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	// A full buffer drops, and says so.
	for i := 0; i < 10; i++ {
		tr.end(tr.begin(spanGet, 0, op))
	}
	if tr.dropped.Load() != 5 || tr.used() != 8 {
		t.Fatalf("dropped %d, used %d", tr.dropped.Load(), tr.used())
	}
}

func TestKindOffsetFindsTheRequestKind(t *testing.T) {
	if kindOffset < 0 {
		t.Fatal("the codec's kind byte was not found")
	}
}
