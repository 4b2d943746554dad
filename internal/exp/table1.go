package exp

import (
	"context"

	"fmt"
	"strings"

	"dharma"
)

// table1Nodes is the overlay size of each Table I deployment.
const table1Nodes = 16

// Table1Row is one primitive's cost, analytic and measured.
type Table1Row struct {
	Primitive string
	Formula   string
	Param     int   // the m or |Tags(r)| the measurement used
	Expected  int64 // formula evaluated at Param
	Measured  int64 // block operations the peer issued (Peer.Lookups)
	overlay   int64 // walks plus replica-set hits of the peer's overlay node
}

// Table1Result reproduces Table I: the lookup cost of the distributed
// tagging primitives, naive and approximated, verified by running every
// primitive on a NewSystem deployment of each mode.
type Table1Result struct {
	K          int // connection parameter used for the approximated rows
	NaiveRows  []Table1Row
	ApproxRows []Table1Row
}

// RunTable1 measures every Table I cell. The m and |Tags(r)| parameters
// are fixed small values (costs are exact formulas, verified per-call).
func RunTable1(k int) (*Table1Result, error) {
	res := &Table1Result{K: k}
	var err error
	if res.NaiveRows, err = measureTable1(dharma.Naive, k); err != nil {
		return nil, err
	}
	if res.ApproxRows, err = measureTable1(dharma.Approximated, k); err != nil {
		return nil, err
	}
	return res, nil
}

// measureTable1 boots one deployment in the given mode and runs each
// primitive once from peer 0, recording how far the peer's block
// operations moved and how far its node's walks plus replica-set hits
// did: a Store to a key whose replica set the node already knows sends
// straight to it instead of walking.
func measureTable1(mode dharma.Mode, k int) ([]Table1Row, error) {
	sys, err := dharma.NewSystem(dharma.Config{Nodes: table1Nodes, Mode: mode, K: k, Seed: 7})
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()
	p := sys.Peer(0)
	ctx := context.Background()
	c := p.Node.Counters()
	overlay := func() int64 { return c.Lookups.Load() + c.ReplicaSetHits.Load() }
	measure := func(row Table1Row, op func() error) (Table1Row, error) {
		before, overlay0 := p.Lookups(), overlay()
		if err := op(); err != nil {
			return row, err
		}
		row.Measured = p.Lookups() - before
		row.overlay = overlay() - overlay0
		return row, nil
	}

	const m = 8 // tags on the insert measurement
	tags := make([]string, m)
	for i := range tags {
		tags[i] = fmt.Sprintf("t%d", i)
	}
	tag := Table1Row{Primitive: "Tag(r,t)", Formula: "4+|Tags(r)|", Param: m, Expected: 4 + m} // |Tags(r)| when "fresh" is added
	if mode == dharma.Approximated {
		tag.Formula, tag.Expected = "4+k", int64(4+min(k, m))
	}
	steps := []struct {
		row Table1Row
		op  func() error
	}{
		{Table1Row{Primitive: "Insert(r, t1..m)", Formula: "2+2m", Param: m, Expected: 2 + 2*m},
			func() error { return p.InsertResource(ctx, "r", "uri:r", tags) }},
		{tag, func() error { return p.Tag(ctx, "r", "fresh") }},
		{Table1Row{Primitive: "Search step", Formula: "2", Expected: 2},
			func() error { _, _, err := p.SearchStep(ctx, "t0"); return err }},
	}
	rows := make([]Table1Row, len(steps))
	for i, s := range steps {
		if rows[i], err = measure(s.row, s.op); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// String renders the table in the paper's layout.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — distributed tagging primitives cost (k=%d)\n", r.K)
	fmt.Fprintf(&b, "%-22s %-14s %8s %10s %10s\n", "primitive", "formula", "param", "expected", "measured")
	dump := func(label string, rows []Table1Row) {
		fmt.Fprintf(&b, "-- %s --\n", label)
		for _, row := range rows {
			fmt.Fprintf(&b, "%-22s %-14s %8d %10d %10d\n",
				row.Primitive, row.Formula, row.Param, row.Expected, row.Measured)
		}
	}
	dump("#lookups (naive)", r.NaiveRows)
	dump("#lookups (approximated)", r.ApproxRows)
	fmt.Fprintf(&b, "overlay-verified: %v, both modes on %d nodes, block ops = node walks + replica-set hits (paper: Insert 2+2m | Tag naive 4+|Tags(r)|, approx 4+k | Search 2)\n",
		r.Verified(), table1Nodes)
	return b.String()
}

// Verified reports whether every measured cost matched its formula and
// every block operation ran exactly one overlay walk or replica-set hit.
func (r *Table1Result) Verified() bool {
	for _, rows := range [][]Table1Row{r.NaiveRows, r.ApproxRows} {
		for _, row := range rows {
			if row.Expected != row.Measured || row.Measured != row.overlay {
				return false
			}
		}
	}
	return true
}
