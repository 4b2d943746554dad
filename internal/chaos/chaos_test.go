package chaos

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dharma/internal/dht"
	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

func TestLedgerFloors(t *testing.T) {
	l := NewLedger()
	key := kadid.HashString("k")

	// Plain append: floor is the count.
	l.Record(key, []wire.Entry{{Field: "a", Count: 3}})
	// Conditional create (Approximation B): the storage node either
	// creates at Init or adds Count, so only min(Init, Count) is owed.
	l.Record(key, []wire.Entry{{Field: "b", Init: 10, Count: 2}})
	// Data-only write: presence is owed, no count.
	l.Record(key, []wire.Entry{{Field: "c", Count: 0, Data: []byte("uri")}})
	// A later larger floor wins; a smaller one must not regress it.
	l.Record(key, []wire.Entry{{Field: "a", Count: 9}})
	l.Record(key, []wire.Entry{{Field: "a", Count: 1}})

	good := map[string]uint64{"a": 9, "b": 2, "c": 0}
	viol := l.Check(context.Background(), func(_ context.Context, k kadid.ID) ([]wire.Entry, error) {
		var out []wire.Entry
		for f, c := range good {
			out = append(out, wire.Entry{Field: f, Count: c})
		}
		return out, nil
	})
	if len(viol) != 0 {
		t.Fatalf("exact floors flagged as violations: %v", viol)
	}

	viol = l.Check(context.Background(), func(_ context.Context, k kadid.ID) ([]wire.Entry, error) {
		return []wire.Entry{{Field: "a", Count: 8}, {Field: "b", Count: 2}}, nil
	})
	// a below floor, c missing entirely.
	if len(viol) != 2 {
		t.Fatalf("want 2 violations (a low, c missing), got %v", viol)
	}
}

func TestLedgerEmptyAppendPromisesNothing(t *testing.T) {
	l := NewLedger()
	l.Record(kadid.HashString("k"), nil)
	if got := l.Blocks(); got != 0 {
		t.Fatalf("empty append created %d obligations", got)
	}
}

func TestLedgerCheckReportsUnreadableBlocks(t *testing.T) {
	l := NewLedger()
	l.Record(kadid.HashString("k"), []wire.Entry{{Field: "f", Count: 1}})
	boom := errors.New("boom")
	viol := l.Check(context.Background(), func(context.Context, kadid.ID) ([]wire.Entry, error) { return nil, boom })
	if len(viol) != 1 || !errors.Is(viol[0].Err, boom) {
		t.Fatalf("viol = %v", viol)
	}
}

func TestRecordingOnlyRecordsAcknowledged(t *testing.T) {
	l := NewLedger()
	inner := dht.NewLocal()
	rec := NewRecording(failingStore{inner: inner, failKey: kadid.HashString("bad")}, l)

	good := kadid.HashString("good")
	if err := rec.Append(context.Background(), good, []wire.Entry{{Field: "f", Count: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Append(context.Background(), kadid.HashString("bad"), []wire.Entry{{Field: "f", Count: 2}}); err == nil {
		t.Fatal("failing append did not error")
	}
	if err := rec.AppendBatch(context.Background(), []dht.BatchItem{
		{Key: kadid.HashString("bad"), Entries: []wire.Entry{{Field: "x", Count: 1}}},
		{Key: good, Entries: []wire.Entry{{Field: "y", Count: 1}}},
	}); err == nil {
		t.Fatal("failing batch did not error")
	}
	if got := l.Blocks(); got != 1 {
		t.Fatalf("ledger holds %d blocks, want only the acknowledged one", got)
	}
	if got := l.Fields(); got != 1 {
		t.Fatalf("ledger holds %d fields, want 1 (the failed batch must record nothing)", got)
	}
	if rec.Writes() != 1 {
		t.Fatalf("Writes = %d, want 1", rec.Writes())
	}
}

type failingStore struct {
	inner   dht.Store
	failKey kadid.ID
}

func (s failingStore) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	if key == s.failKey {
		return errors.New("injected append failure")
	}
	return s.inner.Append(ctx, key, entries)
}

func (s failingStore) AppendBatch(ctx context.Context, items []dht.BatchItem) error {
	for _, it := range items {
		if it.Key == s.failKey {
			return errors.New("injected batch failure")
		}
	}
	return s.inner.AppendBatch(ctx, items)
}

func (s failingStore) Get(ctx context.Context, key kadid.ID, topN int) ([]wire.Entry, error) {
	return s.inner.Get(ctx, key, topN)
}

func TestRepairAndCheckSurvivesKMinusOneCrashes(t *testing.T) {
	cl, err := kademlia.NewCluster(kademlia.ClusterConfig{
		N:    32,
		Node: kademlia.Config{K: 5, Alpha: 3},
		Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	ledger := NewLedger()
	store := NewRecording(dht.NewOverlay(cl.NodeAt(0), nil), ledger)

	for i := 0; i < 20; i++ {
		key := kadid.HashString(fmt.Sprintf("blk%d", i))
		if err := store.Append(context.Background(), key, []wire.Entry{{Field: "f", Count: uint64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}

	// Crash k-1 = 4 holders of block 0, keeping one live.
	key0 := kadid.HashString("blk0")
	crashed := 0
	for _, c := range cl.ClosestGroundTruth(key0, 5) {
		if crashed == 4 {
			break
		}
		for i, n := range cl.Snapshot() {
			if n.Self().ID == c.ID && i != 0 && n.LocalStore().Has(key0) {
				if _, err := cl.Crash(i); err != nil {
					t.Fatal(err)
				}
				crashed++
				break
			}
		}
	}
	if crashed == 0 {
		t.Skip("no crashable holders under this seed")
	}

	if viol := AntiEntropyAndCheck(context.Background(), cl, ledger, 2, 1); len(viol) != 0 {
		t.Fatalf("lost %d acknowledged writes after crashing %d holders: %v", len(viol), crashed, viol)
	}
}
