package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds (a test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system would see, measured
// with tracing off. Every workload reports every one of them, so each
// is defined (and non-zero) on all four workloads. The timing bounds
// are three times the run-to-run spread this sandbox shows on an
// unchanged program (see README.md); the counts are held tighter.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"insert_p50_us", "us", "lower", 0.25},
	{"tag_p50_us", "us", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.1},
	{"alloc_kb_per_op", "KiB", "lower", 0.1},
	{"blockops_per_op", "count", "lower", 0.02},
	{"success_ratio", "ratio", "higher", 0},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the diagnostics of single layers, from the traced run
// and the isolated probes. A metric reads 0 on a workload that bypasses
// its layer — which is the property the workload was chosen for.
var perLayer = []metricDef{
	// Whole-deployment counts and tails that are undefined (or zero) on
	// at least one workload, and so cannot carry a bound; and the two read
	// latencies, which on udp-durable (a few loopback round trips on an
	// otherwise idle CPU) drift by up to 18 % between two sets of runs of
	// the same program — too much to gate on. They come from the traced
	// run's untraced half.
	{"rpcs_per_op", "count", "lower", 0},
	{"wire_kb_per_op", "KiB", "lower", 0},
	{"hot_node_share", "ratio", "lower", 0},
	{"navigate_p50_us", "us", "lower", 0},
	{"search_p50_us", "us", "lower", 0},
	{"tag_p99_us", "us", "lower", 0},
	{"navigate_p99_us", "us", "lower", 0},

	{"core.op_self_us", "us", "lower", 0},
	{"core.blockops_per_tag", "count", "lower", 0},
	{"core.blockops_per_insert", "count", "lower", 0},
	{"search.blockops_per_navigate", "count", "lower", 0},
	{"search.steps_per_navigate", "count", "lower", 0},

	{"dht.get_p50_us", "us", "lower", 0},
	{"dht.append_p50_us", "us", "lower", 0},
	{"dht.blockop_wall_share", "ratio", "lower", 0},

	{"kademlia.rpcs_per_get", "count", "lower", 0},
	{"kademlia.rpcs_per_append", "count", "lower", 0},
	{"kademlia.waves_per_blockop", "count", "lower", 0},
	{"kademlia.lookup_self_us_per_blockop", "us", "lower", 0},
	{"kademlia.handle_find_node_us", "us", "lower", 0},
	{"kademlia.handle_find_value_us", "us", "lower", 0},
	{"kademlia.handle_store_us", "us", "lower", 0},
	{"kademlia.store_append_ns", "ns", "lower", 0},
	{"kademlia.store_get_top100_ns", "ns", "lower", 0},
	{"kademlia.table_closest_ns", "ns", "lower", 0},

	{"simnet.call_self_us", "us", "lower", 0},

	{"wire.req_bytes_per_rpc", "B", "lower", 0},
	{"wire.resp_bytes_per_rpc", "B", "lower", 0},
	{"wire.udp_rtt_p50_us", "us", "lower", 0},
	{"wire.udp_rtt_p99_us", "us", "lower", 0},
	{"wire.encode_ns_per_msg", "ns", "lower", 0},
	{"wire.decode_ns_per_msg", "ns", "lower", 0},

	{"session.seal_ns", "ns", "lower", 0},
	{"session.open_ns", "ns", "lower", 0},
	{"session.handshake_us", "us", "lower", 0},
	{"likir.sign_entry_us", "us", "lower", 0},
	{"likir.verify_entry_us", "us", "lower", 0},
	{"admission.admit_ns", "ns", "lower", 0},
	{"admission.busy_rejected", "count", "lower", 0},

	{"persist.commit_group_us", "us", "lower", 0},
	{"persist.commit_nosync_us", "us", "lower", 0},
	{"persist.recover_ms", "ms", "lower", 0},
	{"persist.wal_bytes_per_op", "B", "lower", 0},

	{"proc.peak_rss_mb", "MiB", "lower", 0},
	{"proc.gc_pause_ms", "ms/s", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// metricValue is one reported number, in the contract's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pack turns measured values into the contract's metric map, in the
// declared units, and insists that every declared metric is present
// and nothing else is.
func pack(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("bench: metric " + d.name + " was not measured")
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				panic("bench: metric " + name + " is not declared")
			}
		}
	}
	return out
}
