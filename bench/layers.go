package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dharma/internal/wire"
)

// layerReport is what the traced run's spans say about each layer.
type layerReport struct {
	values map[string]float64
	budget budget
}

// layerTimes is one time per layer, in mean µs per traced op.
type layerTimes struct {
	core    float64 // op minus the union of its block ops: core and search
	lookup  float64 // block op minus the union of its RPCs: dht, kademlia lookup, local store
	rpc     float64 // RPC minus its handler: simnet on sim-*; on UDP the whole exchange (wire, session, remote node, its WAL)
	handler float64 // served request: kademlia.HandleRPC (simnet only)
}

func (t layerTimes) sum() float64 { return t.core + t.lookup + t.rpc + t.handler }

// budget is the per-op time budget of one workload: where an
// operation's time goes, layer by layer, in two views.
//
// busy sums self times over every span of the op, so branches that ran
// in parallel (a batch's block ops, a lookup's α probes) each count in
// full: it is what the layer's work costs, and exceeds the op's wall
// time by the amount of overlap.
//
// wall splits the op's wall time among the layers: a span's self time
// is its own, and the time its children cover is shared among them in
// proportion to their durations, recursively. Its rows add up to the
// op's wall time; the residual is what they fail to account for.
type budget struct {
	ops    int
	opWall float64
	busy   layerTimes
	wall   layerTimes
}

func (b budget) residual() float64 { return b.opWall - b.wall.sum() }

func (b budget) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "time budget of %s, mean us per op over %d traced ops\n", workload, b.ops)
	fmt.Fprintf(w, "  %-46s %10s %10s %7s\n", "layer (self time)", "busy", "wall", "wall %")
	row := func(name string, busy, wall float64) {
		fmt.Fprintf(w, "  %-46s %10.1f %10.1f %6.1f%%\n", name, busy, wall, 100*wall/b.opWall)
	}
	row("core+search (op - its block ops)", b.busy.core, b.wall.core)
	row("dht+lookup+store (block op - its RPCs)", b.busy.lookup, b.wall.lookup)
	row("transport (RPC - its handler)", b.busy.rpc, b.wall.rpc)
	row("handler (kademlia.HandleRPC, simnet only)", b.busy.handler, b.wall.handler)
	row("residual", 0, b.residual())
	row("= op wall", b.busy.sum(), b.opWall)
}

// analyse walks the span buffer once it is quiescent and derives every
// span-based per-layer metric.
func analyse(spans []span) layerReport {
	// Children of each span, as one index array grouped by parent.
	childCount := make([]int32, len(spans)+1)
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			childCount[p+1]++
		}
	}
	for i := 1; i < len(childCount); i++ {
		childCount[i] += childCount[i-1]
	}
	childStart := childCount // childStart[p]..childStart[p+1] indexes children of p
	children := make([]int32, childStart[len(spans)])
	fill := append([]int32(nil), childStart[:len(spans)]...)
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			children[fill[p]] = int32(i)
			fill[p]++
		}
	}
	kids := func(i int) []int32 { return children[childStart[i]:childStart[i+1]] }

	// First pass: every span's self time (a span without children is all
	// self time).
	var ivs []interval // scratch
	intervalsOf := func(idx []int32) []interval {
		ivs = ivs[:0]
		for _, c := range idx {
			ivs = append(ivs, interval{spans[c].start, spans[c].end})
		}
		return ivs
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if len(kids(i)) == 0 {
			self[i] = s.dur()
		} else {
			self[i] = selfTime(s.start, s.end, intervalsOf(kids(i)))
		}
	}
	// shareOut splits the time `covered` of a parent among its children.
	// Children that overlap form a group; each group takes the part of
	// covered that matches its extent, and within a group the members
	// share in proportion to their durations. A child that ran alone thus
	// keeps its whole duration, and parallel siblings divide theirs.
	var order []int32 // scratch
	shareOut := func(covered float64, idx []int32, each func(c int, share float64)) {
		if len(idx) == 0 || covered <= 0 {
			return
		}
		if len(idx) == 1 {
			each(int(idx[0]), covered)
			return
		}
		order = append(order[:0], idx...)
		sort.Slice(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
		type group struct {
			from, to int // members order[from:to]
			lo, hi   int64
			sum      int64 // of member durations
		}
		var groups []group
		var extent int64
		for i, c := range order {
			s := &spans[c]
			if n := len(groups); n > 0 && s.start < groups[n-1].hi {
				g := &groups[n-1]
				g.to, g.sum = i+1, g.sum+s.dur()
				if s.end > g.hi {
					extent += s.end - g.hi
					g.hi = s.end
				}
				continue
			}
			groups = append(groups, group{from: i, to: i + 1, lo: s.start, hi: s.end, sum: s.dur()})
			extent += s.dur()
		}
		if extent == 0 {
			return
		}
		// each may recurse into shareOut and reuse the scratch, so the
		// members are copied out first.
		members := append([]int32(nil), order...)
		for _, g := range groups {
			if g.sum == 0 {
				continue
			}
			part := covered * float64(g.hi-g.lo) / float64(extent)
			for _, c := range members[g.from:g.to] {
				each(int(c), part*float64(spans[c].dur())/float64(g.sum))
			}
		}
	}
	// split hands a span's wall-time share to its own layer (the part
	// that is self time) and to its children (the rest).
	var wall [spanHandler + 1]float64
	var split func(i int, share float64)
	split = func(i int, share float64) {
		s := &spans[i]
		if s.dur() == 0 {
			return
		}
		own := share * float64(self[i]) / float64(s.dur())
		wall[s.kind] += own
		shareOut(share-own, kids(i), split)
	}

	var (
		opCount    [numOpKinds]int
		opBlockOps [numOpKinds]int64
		navSteps   int64
		opWall     int64

		getDur, appendDur []time.Duration
		blockSpans        int
		waveSum           int64
		rpcsUnder         [2]int64 // by block-op kind: get, append
		blockOpsOf        [2]int64

		rpcCount          int64
		reqBytes, respByt int64
		rpcDur            []time.Duration
		handlerCount      [256]int64
		handlerDur        [256]int64

		busy [spanHandler + 1]int64 // self time summed by span kind
	)
	for i := range spans {
		s := &spans[i]
		busy[s.kind] += self[i]
		switch s.kind {
		case spanOp:
			k := opKind(s.sub)
			opCount[k]++
			opWall += s.dur()
			split(i, float64(s.dur()))
			for _, c := range kids(i) {
				opBlockOps[k] += int64(spans[c].n)
			}
			if k == opNavigate {
				navSteps += int64(s.n)
			}
		case spanGet, spanAppend:
			which := 0
			if s.kind == spanAppend {
				which = 1
				appendDur = append(appendDur, time.Duration(s.dur()))
			} else {
				getDur = append(getDur, time.Duration(s.dur()))
			}
			blockSpans++
			blockOpsOf[which] += int64(s.n)
			rpcsUnder[which] += int64(len(kids(i)))
			waveSum += int64(waves(intervalsOf(kids(i))))
		case spanRPC:
			rpcCount++
			reqBytes += int64(s.req)
			respByt += int64(s.resp)
			rpcDur = append(rpcDur, time.Duration(s.dur()))
		case spanHandler:
			handlerCount[s.sub]++
			handlerDur[s.sub] += s.dur()
		}
	}
	blockSelf := busy[spanGet] + busy[spanAppend]

	ops := 0
	for _, n := range opCount {
		ops += n
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(ns int64, n int64) float64 { return ratio(float64(ns)/1e3, float64(n)) }
	p50 := func(ds []time.Duration) float64 {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return micros(percentile(ds, 0.50))
	}
	handle := func(k wire.Kind) float64 { return us(handlerDur[k], handlerCount[k]) }

	v := map[string]float64{
		"core.op_self_us":              us(busy[spanOp], int64(ops)),
		"core.blockops_per_tag":        ratio(float64(opBlockOps[opTag]), float64(opCount[opTag])),
		"core.blockops_per_insert":     ratio(float64(opBlockOps[opInsert]), float64(opCount[opInsert])),
		"search.blockops_per_navigate": ratio(float64(opBlockOps[opNavigate]), float64(opCount[opNavigate])),
		"search.steps_per_navigate":    ratio(float64(navSteps), float64(opCount[opNavigate])),

		"dht.get_p50_us":         p50(getDur),
		"dht.append_p50_us":      p50(appendDur),
		"dht.blockop_wall_share": ratio(float64(opWall-busy[spanOp]), float64(opWall)),

		"kademlia.rpcs_per_get":               ratio(float64(rpcsUnder[0]), float64(blockOpsOf[0])),
		"kademlia.rpcs_per_append":            ratio(float64(rpcsUnder[1]), float64(blockOpsOf[1])),
		"kademlia.waves_per_blockop":          ratio(float64(waveSum), float64(blockSpans)),
		"kademlia.lookup_self_us_per_blockop": us(blockSelf, int64(blockSpans)),
		"kademlia.handle_find_node_us":        handle(wire.KindFindNode),
		"kademlia.handle_find_value_us":       handle(wire.KindFindValue),
		"kademlia.handle_store_us":            handle(wire.KindStore),

		"wire.req_bytes_per_rpc":  ratio(float64(reqBytes), float64(rpcCount)),
		"wire.resp_bytes_per_rpc": ratio(float64(respByt), float64(rpcCount)),
		"wire_kb_per_op":          ratio(float64(reqBytes+respByt)/1024, float64(ops)),
	}
	// With handler spans (simnet) the RPC's self time is the simulated
	// network's own cost; without them (UDP) an RPC span is a round trip.
	sort.Slice(rpcDur, func(i, j int) bool { return rpcDur[i] < rpcDur[j] })
	if busy[spanHandler] > 0 {
		v["simnet.call_self_us"] = us(busy[spanRPC], rpcCount)
		v["wire.udp_rtt_p50_us"], v["wire.udp_rtt_p99_us"] = 0, 0
	} else {
		v["simnet.call_self_us"] = 0
		v["wire.udp_rtt_p50_us"] = micros(percentile(rpcDur, 0.50))
		v["wire.udp_rtt_p99_us"] = 0
		if len(rpcDur) >= minP99Samples {
			v["wire.udp_rtt_p99_us"] = micros(percentile(rpcDur, 0.99))
		}
	}

	perOp := func(ns float64) float64 { return ratio(ns/1e3, float64(ops)) }
	return layerReport{values: v, budget: budget{
		ops:    ops,
		opWall: perOp(float64(opWall)),
		busy: layerTimes{
			core: perOp(float64(busy[spanOp])), lookup: perOp(float64(blockSelf)),
			rpc: perOp(float64(busy[spanRPC])), handler: perOp(float64(busy[spanHandler])),
		},
		wall: layerTimes{
			core: perOp(wall[spanOp]), lookup: perOp(wall[spanGet] + wall[spanAppend]),
			rpc: perOp(wall[spanRPC]), handler: perOp(wall[spanHandler]),
		},
	}}
}
