package kademlia

import (
	"context"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/wire"
)

// TestAdmitRejectsBadCredentials drives admit's credential branches on
// a secured simnet node: a STORE whose credential blob does not parse,
// was issued by another authority, or names a different node than the
// sender must be answered UNAUTHORIZED, land nothing, and be counted.
func TestAdmitRejectsBadCredentials(t *testing.T) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{N: 1, Node: Config{K: 4}, Seed: 5, Authority: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	srv := cl.Nodes[0]

	client, err := auth.Issue(nil, "client")
	if err != nil {
		t.Fatal(err)
	}
	other, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Issue(nil, "foreign")
	if err != nil {
		t.Fatal(err)
	}

	key := kadid.HashString("block")
	cases := []struct {
		name string
		from kadid.ID
		cred []byte
	}{
		{"malformed", client.NodeID, []byte{0xde, 0xad, 0xbe, 0xef}},
		{"other CA", foreign.NodeID, foreign.Credential.Marshal()},
		{"id mismatch", kadid.HashString("impostor"), client.Credential.Marshal()},
	}
	rejected := srv.Counters().AuthRejected.At(int(wire.KindStore) - 1)
	for i, tc := range cases {
		payload := wire.Encode(&wire.Message{
			Kind:    wire.KindStore,
			From:    wire.Contact{ID: tc.from, Addr: "client-addr"},
			Cred:    tc.cred,
			Target:  key,
			Entries: []wire.Entry{{Field: "arc", Count: 1}},
		})
		out, err := srv.HandleRPC(context.Background(), "client-addr", payload)
		if err != nil {
			t.Fatalf("%s: HandleRPC: %v", tc.name, err)
		}
		resp, err := wire.Decode(out)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if resp.Kind != wire.KindUnauthorized {
			t.Fatalf("%s: STORE answered %v, want UNAUTHORIZED", tc.name, resp.Kind)
		}
		if srv.LocalStore().Len() != 0 {
			t.Fatalf("%s: rejected STORE reached the store", tc.name)
		}
		if got := rejected.Load(); got != int64(i+1) {
			t.Fatalf("%s: AuthRejected[STORE] = %d, want %d", tc.name, got, i+1)
		}
	}
}
