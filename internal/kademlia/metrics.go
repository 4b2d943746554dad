package kademlia

import (
	"dharma/internal/obs"
	"dharma/internal/wire"
)

// maxKind bounds the per-kind instrument vectors; wire kinds are a
// dense enum starting at 1.
const maxKind = int(wire.KindUnauthorized)

// kindNames lists every wire.Kind's name, indexed by kind-1, for
// metric label values.
func kindNames() []string {
	names := make([]string, maxKind)
	for i := range names {
		names[i] = wire.Kind(i + 1).String()
	}
	return names
}

// nodeMetrics holds the node's registered instruments. The zero value
// (an un-instrumented node) is fully usable: every field is nil and
// every record call is a no-op branch, so the protocol code threads
// telemetry without conditionals.
type nodeMetrics struct {
	rpcLatency   *obs.HistogramVec // serve time by wire.Kind
	rpcReqBytes  *obs.CounterVec   // decoded request payload bytes by kind
	rpcRespBytes *obs.CounterVec   // encoded response payload bytes by kind

	deadlineShed *obs.CounterVec // requests shed dead-on-arrival, by kind
	authRejected *obs.CounterVec // requests answered UNAUTHORIZED, by kind

	lookupWall   *obs.Histogram // per-lookup wall time
	lookupRounds *obs.Histogram // α-waves per lookup
	lookupTried  *obs.Histogram // candidates queried per lookup
	lookupBusy   *obs.Counter   // candidates still BUSY after retries

	tracesCaptured *obs.Counter
}

// kindHist returns the serve-latency histogram for k (nil when
// un-instrumented or k is out of the known range).
func (m *nodeMetrics) kindHist(k wire.Kind) *obs.Histogram {
	return m.rpcLatency.At(int(k) - 1)
}

// Instrument registers the node's instruments on reg and wires the
// node's pre-existing atomic counters in as scrape-time funcs. Call
// once, before the node serves traffic. A nil reg is a no-op (the node
// stays un-instrumented).
func (n *Node) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	names := kindNames()
	n.metrics = nodeMetrics{
		rpcLatency: reg.HistogramVec("dharma_rpc_serve_seconds",
			"Time to serve one RPC request, by message kind.", "kind", names),
		rpcReqBytes: reg.CounterVec("dharma_rpc_request_bytes_total",
			"Decoded request payload bytes served, by message kind.", "kind", names),
		rpcRespBytes: reg.CounterVec("dharma_rpc_response_bytes_total",
			"Encoded response payload bytes returned, by message kind.", "kind", names),
		deadlineShed: reg.CounterVec("dharma_rpc_deadline_shed_total",
			"Requests shed because the caller's propagated deadline had already expired, by message kind.", "kind", names),
		authRejected: reg.CounterVec("dharma_rpc_auth_rejected_total",
			"Requests answered UNAUTHORIZED by the Likir identity checks, by message kind.", "kind", names),
		lookupWall: reg.Histogram("dharma_lookup_wall_seconds",
			"Wall time of one iterative lookup."),
		lookupRounds: reg.ValueHistogram("dharma_lookup_rounds",
			"α-wide query waves per iterative lookup (the paper's hop count)."),
		lookupTried: reg.ValueHistogram("dharma_lookup_candidates_tried",
			"Candidates queried per iterative lookup."),
		lookupBusy: reg.Counter("dharma_lookup_busy_candidates_total",
			"Lookup candidates that stayed BUSY after the retry budget."),
		tracesCaptured: reg.Counter("dharma_lookup_traces_captured_total",
			"Lookup traces captured (sampled, slow, or forced)."),
	}
	reg.CounterFunc("dharma_lookups_total",
		"Iterative lookup procedures initiated.", n.lookups.Load)
	reg.CounterFunc("dharma_lookup_rounds_total",
		"Lookup rounds (α-wide waves) executed.", n.rounds.Load)
	reg.CounterFunc("dharma_rpc_served_total",
		"RPC requests answered.", n.rpcServed.Load)
	reg.CounterFunc("dharma_antientropy_synced_total",
		"Blocks synced by anti-entropy rounds.", n.aeSynced.Load)
	reg.CounterFunc("dharma_antientropy_digest_matches_total",
		"Anti-entropy summary exchanges proving agreement by digest.", n.aeMatches.Load)
	reg.CounterFunc("dharma_antientropy_suppressed_total",
		"Anti-entropy rounds suppressed for just-written blocks.", n.aeSuppressed.Load)
	reg.CounterFunc("dharma_antientropy_skipped_total",
		"Anti-entropy rounds skipped for settled blocks.", n.aeSkipped.Load)
	reg.CounterFunc("dharma_antientropy_delta_entries_total",
		"Entries pushed as anti-entropy deltas and acknowledged.", n.aeDeltaEntries.Load)
	reg.CounterFunc("dharma_antientropy_pull_entries_total",
		"Entries pulled from replicas holding higher counts.", n.aePullEntries.Load)
	reg.CounterFunc("dharma_antientropy_full_blocks_total",
		"Blocks anti-entropy had to push in full.", n.aeFullBlocks.Load)
	reg.CounterFunc("dharma_maintenance_bytes_out_total",
		"Maintenance-plane payload bytes sent on completed SUMMARY + REPLICATE exchanges.", n.aeBytesOut.Load)
	reg.CounterFunc("dharma_maintenance_bytes_in_total",
		"Maintenance-plane payload bytes received on completed exchanges.", n.aeBytesIn.Load)
	reg.GaugeFunc("dharma_routing_table_peers",
		"Live contacts in the routing table.", func() int64 { return int64(n.table.Len()) })
	reg.GaugeFunc("dharma_store_blocks",
		"Blocks held by the local store.", func() int64 { return int64(n.store.Len()) })
	n.store.Instrument(reg)
}
