package dharma_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"dharma"
	"dharma/internal/chaos"
	"dharma/internal/dht"
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// TestGetResultIsCallerOwned pins the two halves of the dht.Store
// contract that core.Engine relies on: Tag filters and shuffles r̄ in
// place, so the caller owns a Get result — rewriting every Field, Count
// and Data byte of one Get must leave the next Get unchanged — and Tag
// and InsertResource hand one entry slice to several appends, so an
// Append leaves its input as it was. Both are checked on the in-process
// store, on a simnet overlay and through the chaos ledger decorator.
func TestGetResultIsCallerOwned(t *testing.T) {
	ctx := context.Background()
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 8, K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	stores := []struct {
		name  string
		store dht.Store
	}{
		{"local", dht.NewLocal()},
		{"overlay", dht.NewOverlay(sys.Peer(1).Node, sys.Peer(1).Node.Identity())},
		{"recording", chaos.NewRecording(dht.NewLocal(), chaos.NewLedger())},
	}
	key := kadid.HashString("owned")
	want := []wire.Entry{
		{Field: "a", Count: 3, Data: []byte("uri-a")},
		{Field: "b", Count: 1, Data: []byte("uri-b")},
	}
	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			in := make([]wire.Entry, len(want))
			for i, e := range want {
				in[i] = wire.Entry{Field: e.Field, Count: e.Count, Data: slices.Clone(e.Data)}
			}
			if err := tc.store.Append(ctx, key, in); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !reflect.DeepEqual(in[i], want[i]) {
					t.Fatalf("Append modified its input entry %d: %+v, handed %+v", i, in[i], want[i])
				}
			}
			got, err := tc.store.Get(ctx, key, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				got[i].Field += "-mutated"
				got[i].Count += 100
				for j := range got[i].Data {
					got[i].Data[j] = 'X'
				}
			}
			again, err := tc.store.Get(ctx, key, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != len(want) {
				t.Fatalf("second Get returned %d entries, want %d", len(again), len(want))
			}
			for i := range want {
				if again[i].Field != want[i].Field || again[i].Count != want[i].Count || string(again[i].Data) != string(want[i].Data) {
					t.Fatalf("entry %d after mutating a Get result = %s/%d/%q, want %s/%d/%q", i,
						again[i].Field, again[i].Count, again[i].Data, want[i].Field, want[i].Count, want[i].Data)
				}
			}
		})
	}
}
