package wire_test

import (
	"context"
	"testing"
	"time"

	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/session"
	"dharma/internal/wire"
)

// BenchmarkUDPCall measures the deployed exchange: one kademlia PING
// from a node to another over loopback UDP, open and sealed, through
// the nodes' own request encoding, handler and reply decoding. What it
// still allocates is the goroutine each served request runs on.
func BenchmarkUDPCall(b *testing.B) {
	auth, err := likir.NewAuthority(nil, time.Hour, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, sealed := range []bool{false, true} {
		name := "plain"
		if sealed {
			name = "sealed"
		}
		b.Run(name, func(b *testing.B) {
			node := func(seed string) *kademlia.Node {
				cfg, opts := kademlia.Config{K: 8}, wire.UDPOptions{}
				if sealed {
					id, err := auth.Issue(nil, seed)
					if err != nil {
						b.Fatal(err)
					}
					m, err := session.NewManager(session.Config{Identity: id, CAPub: auth.PublicKey()})
					if err != nil {
						b.Fatal(err)
					}
					cfg.Identity, cfg.CAPub = id, auth.PublicKey()
					opts = wire.UDPOptions{Sessions: m}
				}
				n := kademlia.NewNode(kadid.HashString(seed), cfg)
				tr, err := wire.ListenUDP("127.0.0.1:0", n, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { tr.Close() })
				n.Attach(tr)
				return n
			}
			srv, cli := node("server"), node("client")
			ctx := context.Background()
			if !cli.Ping(ctx, srv.Self()) { // handshake, first table entries, free-list warm-up
				b.Fatal("warm-up ping failed")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if !cli.Ping(ctx, srv.Self()) {
					b.Fatal("ping failed")
				}
			}
		})
	}
}
