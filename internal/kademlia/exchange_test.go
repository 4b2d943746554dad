package kademlia

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// TestCallOnceAllocatesNothing: on a warmed in-memory cluster under an
// uncancellable context, one exchange — request encoded into a wire
// free-list buffer, admission at the receiver, the served reply, its
// decode — allocates nothing.
func TestCallOnceAllocatesNothing(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 16, Node: Config{K: 8, Alpha: 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	from, to := cl.Nodes[1], cl.Nodes[2].Self()
	target := kadid.HashString("elsewhere")
	var req, resp wire.Message
	call := func() {
		req = wire.Message{Kind: wire.KindFindNode, Target: target}
		if err := from.callOnce(context.Background(), to, &req, &resp); err != nil || len(resp.Contacts) == 0 {
			t.Fatalf("reply %v with %d contacts, err %v", resp.Kind, len(resp.Contacts), err)
		}
	}
	call() // warm the scratch, the decoder's intern table and the free list
	if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
		t.Fatalf("a warmed in-memory exchange allocates %.1f times, want 0", allocs)
	}
}

// TestExchangeBuffersHaveOneOwner stresses the hand-over of request and
// reply buffers between callers, transport and handlers: clients write
// and read back blocks of varied size concurrently, so buffers of every
// capacity cycle through the free list while other exchanges use them.
// A buffer handed to two owners at once shows up as a read that does
// not return the block just written, or as a race report under -race.
// Under a cancellable context the fan-outs overlap and handlers run on
// their own goroutines; short-deadline reads there also abandon
// handlers whose request buffers must not be recycled.
func TestExchangeBuffersHaveOneOwner(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{N: 32, Node: Config{K: 8, Alpha: 3}, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	const clients, rounds = 4, 40
	for _, mode := range []struct {
		name        string
		cancellable bool
	}{{"uncancellable", false}, {"cancellable", true}} {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			if mode.cancellable {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			var wg sync.WaitGroup
			for c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					n := cl.Nodes[c]
					for r := range rounds {
						key := kadid.HashString(fmt.Sprintf("%s/%d/%d", mode.name, c, r))
						want := wire.Entry{
							Field: fmt.Sprintf("field-%d-%d", c, r),
							Count: uint64(r + 1),
							Data:  bytes.Repeat([]byte{byte(16*c + r%16)}, 16+(r*397)%4000),
						}
						if _, err := n.Store(ctx, key, []wire.Entry{want}); err != nil {
							t.Errorf("client %d round %d: store: %v", c, r, err)
							return
						}
						if mode.cancellable && r%4 == 0 {
							// Give up mid-lookup; any answer that does arrive
							// must still be the block.
							short, cancel := context.WithTimeout(ctx, 200*time.Microsecond)
							got, err := n.FindValue(short, key, 0)
							cancel()
							if err == nil && !oneEntry(got, want) {
								t.Errorf("client %d round %d: abandoned read returned %s, want %s", c, r, brief(got), brief([]wire.Entry{want}))
								return
							}
						}
						reader := cl.Nodes[(c+1+r)%len(cl.Nodes)]
						got, err := reader.FindValue(ctx, key, 0)
						if err != nil {
							t.Errorf("client %d round %d: read: %v", c, r, err)
							return
						}
						if !oneEntry(got, want) {
							t.Errorf("client %d round %d: read %s, want %s", c, r, brief(got), brief([]wire.Entry{want}))
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// oneEntry reports whether got is exactly the one entry want.
func oneEntry(got []wire.Entry, want wire.Entry) bool {
	return len(got) == 1 && got[0].Field == want.Field && got[0].Count == want.Count && bytes.Equal(got[0].Data, want.Data)
}

// brief describes entries by field, count and data length.
func brief(es []wire.Entry) string {
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintf(&b, "[%q ×%d, %d data bytes]", e.Field, e.Count, len(e.Data))
	}
	return b.String()
}
