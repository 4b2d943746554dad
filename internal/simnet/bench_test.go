package simnet

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkCallContention measures the per-RPC cost of the network's
// bookkeeping under concurrent callers: every Call takes the network's
// read lock once, so the cost per call should stay flat as callers grow.
func BenchmarkCallContention(b *testing.B) {
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			n := New(Config{Seed: 1})
			const servers = 64
			targets := make([]Addr, servers)
			for i := range targets {
				targets[i] = Addr(fmt.Sprintf("srv-%d", i))
				n.Attach(targets[i], echo())
			}
			eps := make([]Transport, callers)
			for i := range eps {
				eps[i] = n.Attach(Addr(fmt.Sprintf("cli-%d", i)), echo())
			}
			payload := []byte("0123456789abcdef")
			ctx := context.Background()

			b.ReportAllocs()
			b.SetParallelism((callers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(seq.Add(1)-1) % callers
				ep := eps[id]
				for i := 0; pb.Next(); i++ {
					if _, err := ep.Call(ctx, targets[(id+i)%servers], payload); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
