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
var kindNames = func() []string {
	names := make([]string, maxKind)
	for i := range names {
		names[i] = wire.Kind(i + 1).String()
	}
	return names
}()

// Counters are the node's plain totals. NewNode registers every one on
// the node's registry (Node.Metrics), which is their only store: the
// /metrics series, Peer.Stats and tests all read these same atomics.
// The fields are set once by NewNode and never reassigned.
type Counters struct {
	Lookups        *obs.Counter // iterative lookups (walks) initiated; a block op is one walk or one replica-set hit
	ReplicaSetHits *obs.Counter // Stores sent to a cached replica set instead of walking
	ValueMerges    *obs.Counter // value reads whose replies disagreed (or one was out of block order), so the max-merge ran
	BlockOpsShed   *obs.Counter // Stores and FindValues refused at the node's block-operation limit
	LookupRounds   *obs.Counter // α-wide waves across all lookups: the Kademlia hop count
	RPCServed      *obs.Counter // RPC requests answered
	LookupBusy     *obs.Counter // lookup candidates still BUSY after the retry budget
	TracesCaptured *obs.Counter // lookup traces captured, one per lookup that took at least TraceSlow

	// Anti-entropy totals, across AntiEntropyOnce rounds and Handoff
	// (whose exchanges are the same summary sync).
	Synced        *obs.Counter // blocks reconciled via summary exchange
	Suppressed    *obs.Counter // block-rounds skipped because recently written
	Skipped       *obs.Counter // block-rounds skipped because synced and not yet due
	DigestMatches *obs.Counter // summary exchanges where digests matched (no data moved)
	DeltaEntries  *obs.Counter // entries pushed as sync deltas (not whole blocks) and acked
	PullEntries   *obs.Counter // entries pull-merged from better-informed replicas
	FullBlocks    *obs.Counter // fallback whole-block pushes (remote counts unavailable)
	// Payload bytes sent and received on completed SUMMARY/REPLICATE
	// exchanges: the maintenance plane's bandwidth.
	MaintBytesSent, MaintBytesRecv *obs.Counter

	DeadlineShed *obs.CounterVec // requests shed dead-on-arrival, by wire kind (index kind-1)
	AuthRejected *obs.CounterVec // requests answered UNAUTHORIZED, by wire kind (index kind-1)
}

// newCounters registers the node's counters on reg.
func newCounters(reg *obs.Registry) Counters {
	return Counters{
		Lookups: reg.Counter("dharma_lookups_total",
			"Iterative lookup procedures (walks) initiated: every read, maintenance lookup and uncached store."),
		ReplicaSetHits: reg.Counter("dharma_replica_set_hits_total",
			"Stores that sent to a cached replica set instead of walking."),
		ValueMerges: reg.Counter("dharma_value_merges_total",
			"Value reads whose replica replies disagreed (or one was out of block order), so the field-wise max-merge ran."),
		BlockOpsShed: reg.Counter("dharma_block_ops_shed_total",
			"Stores and FindValues refused BUSY at once because the node already ran as many as its adaptive limit allows."),
		LookupRounds: reg.Counter("dharma_lookup_rounds_total",
			"Lookup rounds (α-wide waves) executed."),
		RPCServed: reg.Counter("dharma_rpc_served_total",
			"RPC requests answered."),
		LookupBusy: reg.Counter("dharma_lookup_busy_candidates_total",
			"Lookup candidates that stayed BUSY after the retry budget."),
		TracesCaptured: reg.Counter("dharma_lookup_traces_captured_total",
			"Lookup traces captured, one per lookup that took at least TraceSlow."),
		Synced: reg.Counter("dharma_antientropy_synced_total",
			"Blocks synced by anti-entropy rounds."),
		Suppressed: reg.Counter("dharma_antientropy_suppressed_total",
			"Anti-entropy rounds suppressed for just-written blocks."),
		Skipped: reg.Counter("dharma_antientropy_skipped_total",
			"Anti-entropy rounds skipped for settled blocks."),
		DigestMatches: reg.Counter("dharma_antientropy_digest_matches_total",
			"Anti-entropy summary exchanges proving agreement by digest."),
		DeltaEntries: reg.Counter("dharma_antientropy_delta_entries_total",
			"Entries pushed as anti-entropy deltas and acknowledged."),
		PullEntries: reg.Counter("dharma_antientropy_pull_entries_total",
			"Entries pulled from replicas holding higher counts."),
		FullBlocks: reg.Counter("dharma_antientropy_full_blocks_total",
			"Blocks anti-entropy had to push in full."),
		MaintBytesSent: reg.Counter("dharma_maintenance_bytes_out_total",
			"Maintenance-plane payload bytes sent on completed SUMMARY + REPLICATE exchanges."),
		MaintBytesRecv: reg.Counter("dharma_maintenance_bytes_in_total",
			"Maintenance-plane payload bytes received on completed exchanges."),
		DeadlineShed: reg.CounterVec("dharma_rpc_deadline_shed_total",
			"Requests shed because the caller's propagated deadline had already expired, by message kind.", "kind", kindNames),
		AuthRejected: reg.CounterVec("dharma_rpc_auth_rejected_total",
			"Requests answered UNAUTHORIZED by the Likir identity checks, by message kind.", "kind", kindNames),
	}
}

// nodeMetrics holds the node's timing instruments. The zero value (an
// untimed node) is fully usable: every field is nil and every record
// call is a no-op branch, so the protocol code threads telemetry
// without conditionals and a simulated node reads no extra clocks.
type nodeMetrics struct {
	rpcLatency   *obs.HistogramVec // serve time by wire.Kind
	rpcReqBytes  *obs.CounterVec   // decoded request payload bytes by kind
	rpcRespBytes *obs.CounterVec   // encoded response payload bytes by kind

	lookupWall   *obs.Histogram // per-lookup wall time
	lookupRounds *obs.Histogram // α-waves per lookup
	lookupTried  *obs.Histogram // candidates queried per lookup
}

// kindHist returns the serve-latency histogram for k (nil when untimed
// or k is out of the known range).
func (m *nodeMetrics) kindHist(k wire.Kind) *obs.Histogram {
	return m.rpcLatency.At(int(k) - 1)
}

// Instrument turns on the node's timing histograms — RPC serve latency
// and bytes by kind, lookup wall time, rounds and candidates, store
// append/get latency — on the node's own registry. Call once, before the
// node serves traffic; the deployed peer does, simulated nodes stay
// untimed.
func (n *Node) Instrument() {
	reg := n.reg
	n.metrics = nodeMetrics{
		rpcLatency: reg.HistogramVec("dharma_rpc_serve_seconds",
			"Time to serve one RPC request, by message kind.", "kind", kindNames),
		rpcReqBytes: reg.CounterVec("dharma_rpc_request_bytes_total",
			"Decoded request payload bytes served, by message kind.", "kind", kindNames),
		rpcRespBytes: reg.CounterVec("dharma_rpc_response_bytes_total",
			"Encoded response payload bytes returned, by message kind.", "kind", kindNames),
		lookupWall: reg.Histogram("dharma_lookup_wall_seconds",
			"Wall time of one iterative lookup."),
		lookupRounds: reg.ValueHistogram("dharma_lookup_rounds",
			"α-wide query waves per iterative lookup (the paper's hop count)."),
		lookupTried: reg.ValueHistogram("dharma_lookup_candidates_tried",
			"Candidates queried per iterative lookup."),
	}
	n.store.Instrument(reg)
}
