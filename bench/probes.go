package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"dharma/internal/admission"
	"dharma/internal/core"
	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/persist"
	"dharma/internal/session"
	"dharma/internal/wire"
)

// The isolated probes time one exported call of one layer in a tight
// loop, outside any workload. They say what a layer costs by itself;
// the traced run says how often a workload pays it. Each probe runs
// only on the workloads whose ops reach its layer.

// perCall times n calls of f and returns the mean in nanoseconds.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// medianCall times n calls of f one by one and returns the median in
// nanoseconds — for calls that block on a device, where a mean would be
// an outlier's.
func medianCall(n int, f func(i int) error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return median(ds), nil
}

var probeSink int // keeps probe results alive

// probeStore: kademlia.Store append and top-100 read on a 20,000-entry
// block — the hot-block shape sim-browse prefills.
func probeStore(v map[string]float64) error {
	ctx := context.Background()
	st := kademlia.NewStore()
	key := core.BlockKey("probe", core.BlockTagResources)
	arcs := make([]wire.Entry, hotBlockArcs)
	for i := range arcs {
		arcs[i] = wire.Entry{Field: prefillArc(i), Count: uint64(1 + i%17)}
	}
	if err := st.Append(ctx, key, arcs); err != nil {
		return err
	}
	one := make([]wire.Entry, 1)
	var err error
	v["kademlia.store_append_ns"] = perCall(200000, func(i int) {
		one[0] = wire.Entry{Field: arcs[(i*7919)%len(arcs)].Field, Count: 1}
		if e := st.Append(ctx, key, one); e != nil {
			err = e
		}
	})
	v["kademlia.store_get_top100_ns"] = perCall(20000, func(int) {
		es, _ := st.Get(key, core.DefaultTopN)
		probeSink += len(es)
	})
	return err
}

// probeTable: the k closest contacts out of a 256-contact routing
// table, as a node answering FIND_NODE computes them.
func probeTable(v map[string]float64, k int) {
	rng := rand.New(rand.NewSource(1))
	t := kademlia.NewTable(kadid.Random(rng), k, nil)
	// Keep adding random contacts until the table holds the overlay's
	// size (full buckets turn some away).
	for i := 0; t.Len() < simNodes && i < 1<<20; i++ {
		t.Update(wire.Contact{ID: kadid.Random(rng), Addr: fmt.Sprintf("node-%d", i)})
	}
	targets := make([]kadid.ID, 1024)
	for i := range targets {
		targets[i] = kadid.Random(rng)
	}
	var buf []wire.Contact
	v["kademlia.table_closest_ns"] = perCall(200000, func(i int) {
		buf = t.ClosestInto(targets[i%len(targets)], k, buf)
		probeSink += len(buf)
	})
}

// probeCodec: decode and re-encode the request and response payloads
// the traced run captured at the transport boundary, so the message mix
// is the workload's own.
func probeCodec(v map[string]float64, payloads [][]byte) error {
	v["wire.encode_ns_per_msg"], v["wire.decode_ns_per_msg"] = 0, 0
	if len(payloads) == 0 {
		return nil
	}
	msgs := make([]*wire.Message, len(payloads))
	const rounds = 20
	var err error
	v["wire.decode_ns_per_msg"] = perCall(rounds*len(payloads), func(i int) {
		m, e := wire.Decode(payloads[i%len(payloads)])
		if e != nil {
			err = e
		}
		msgs[i%len(payloads)] = m
	})
	if err != nil {
		return fmt.Errorf("decode captured payload: %w", err)
	}
	buf := make([]byte, 0, 1<<16)
	v["wire.encode_ns_per_msg"] = perCall(rounds*len(msgs), func(i int) {
		buf = wire.AppendEncode(buf[:0], msgs[i%len(msgs)])
		probeSink += len(buf)
	})
	return nil
}

// probeAdmission: one admit/release pair at an idle gate.
func probeAdmission(v map[string]float64) error {
	ctrl := admission.New(admission.Config{})
	var err error
	v["admission.admit_ns"] = perCall(500000, func(int) {
		release, e := ctrl.Admit("127.0.0.1:4000")
		if e != nil {
			err = e
			return
		}
		release()
	})
	return err
}

// probeSecurity: the session layer (handshake, seal, open) and the
// Likir entry signature, with two identities from a throwaway CA.
func probeSecurity(v map[string]float64) error {
	ca, err := likir.NewAuthority(nil, 0, nil)
	if err != nil {
		return err
	}
	var mgrs [2]*session.Manager
	var idents [2]*likir.Identity
	for i := range mgrs {
		if idents[i], err = ca.Issue(nil, fmt.Sprintf("probe-%d", i)); err != nil {
			return err
		}
		if mgrs[i], err = session.NewManager(session.Config{Identity: idents[i], CAPub: ca.PublicKey()}); err != nil {
			return err
		}
	}
	var sess *session.Session
	hs, err := medianCall(200, func(i int) error {
		h, err := mgrs[0].NewHandshake(fmt.Sprintf("127.0.0.1:%d", 5000+i))
		if err != nil {
			return err
		}
		reply, err := mgrs[1].Accept(h.Payload())
		if err != nil {
			return err
		}
		sess, err = h.Finish(reply)
		return err
	})
	if err != nil {
		return fmt.Errorf("session handshake: %w", err)
	}
	v["session.handshake_us"] = hs / 1e3

	// A FIND_NODE request is the frame the session layer sees most.
	payload := wire.Encode(&wire.Message{
		Kind: wire.KindFindNode, Target: kadid.HashString("probe"),
		From: wire.Contact{ID: idents[0].NodeID, Addr: "127.0.0.1:5000"},
	})
	// Frames are sealed into one preallocated arena, so the loop times
	// Seal and nothing else.
	const frames = 100000
	size := len(payload) + session.Overhead
	arena := make([]byte, frames*size)
	sealed := make([][]byte, frames)
	v["session.seal_ns"] = perCall(frames, func(i int) {
		sealed[i] = sess.Seal(arena[i*size:i*size:(i+1)*size], 1, uint64(i), payload)
	})
	v["session.open_ns"] = perCall(frames, func(i int) {
		if _, _, e := mgrs[1].OpenRequest(1, uint64(i), sealed[i]); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("session open: %w", err)
	}

	key := core.BlockKey("probe", core.BlockResourceURI)
	data := []byte("urn:dharma:probe")
	var author, sig []byte
	v["likir.sign_entry_us"] = perCall(2000, func(int) {
		author, sig = idents[0].SignEntry(key, "probe", data)
	}) / 1e3
	v["likir.verify_entry_us"] = perCall(2000, func(int) {
		if e := likir.VerifyEntry(key, "probe", data, author, sig); e != nil {
			err = e
		}
	}) / 1e3
	return err
}

// probePersist: one record committed to a fresh WAL under the default
// group-fsync policy and without fsync, one commit at a time — the
// latency a lone writer pays — then the time to recover one peer's
// data dir as the run left it.
func probePersist(v map[string]float64, scratch, peerDir string) error {
	ctx := context.Background()
	rec := []persist.Record{{
		Op:      persist.OpAppend,
		Key:     core.BlockKey("probe", core.BlockResourceTags),
		Entries: []wire.Entry{{Field: "tag-000", Count: 1}},
	}}
	for _, c := range []struct {
		metric string
		opts   persist.Options
	}{
		{"persist.commit_group_us", persist.Options{}},
		{"persist.commit_nosync_us", persist.Options{Sync: persist.SyncNone}},
	} {
		log, _, err := persist.Open(filepath.Join(scratch, c.metric), c.opts, func(persist.Record) error { return nil })
		if err != nil {
			return err
		}
		ns, err := medianCall(300, func(int) error { return log.Commit(ctx, rec, func() {}) })
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.metric, err)
		}
		v[c.metric] = ns / 1e3
	}

	t0 := time.Now()
	st, _, err := kademlia.OpenDurableStore(peerDir, persist.Options{})
	if err != nil {
		return fmt.Errorf("recover %s: %w", peerDir, err)
	}
	v["persist.recover_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	return st.Close()
}
