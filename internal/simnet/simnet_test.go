package simnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func echo() Handler {
	return HandlerFunc(func(_ context.Context, from Addr, p []byte) ([]byte, error) {
		return append([]byte("echo:"), p...), nil
	})
}

func TestCallDelivers(t *testing.T) {
	n := New(Config{})
	a := n.Attach("a", echo())
	n.Attach("b", echo())

	resp, err := a.Call(context.Background(), "b", []byte("hi"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !bytes.Equal(resp, []byte("echo:hi")) {
		t.Fatalf("resp = %q", resp)
	}
}

func TestCallUnknownAddr(t *testing.T) {
	n := New(Config{})
	a := n.Attach("a", echo())
	if _, err := a.Call(context.Background(), "ghost", []byte("x")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestHandlerErrorBecomesTimeout(t *testing.T) {
	n := New(Config{})
	a := n.Attach("a", echo())
	n.Attach("bad", HandlerFunc(func(context.Context, Addr, []byte) ([]byte, error) {
		return nil, errors.New("boom")
	}))
	if _, err := a.Call(context.Background(), "bad", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestMTUEnforced(t *testing.T) {
	n := New(Config{MTU: 8})
	a := n.Attach("a", echo())
	n.Attach("b", echo())

	if _, err := a.Call(context.Background(), "b", make([]byte, 9)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("request over MTU: want ErrTooLarge, got %v", err)
	}
	// "echo:" + 4 bytes = 9 > 8: the response violates the MTU.
	if _, err := a.Call(context.Background(), "b", make([]byte, 4)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("response over MTU: want ErrTooLarge, got %v", err)
	}
	// 3-byte request gives an 8-byte response: fits.
	if _, err := a.Call(context.Background(), "b", make([]byte, 3)); err != nil {
		t.Fatalf("within MTU: %v", err)
	}
}

func TestDropRateDeterministic(t *testing.T) {
	run := func() (drops int64) {
		n := New(Config{DropRate: 0.3, Seed: 42})
		a := n.Attach("a", echo())
		n.Attach("b", echo())
		for i := 0; i < 1000; i++ {
			a.Call(context.Background(), "b", []byte("x")) //nolint:errcheck // counting drops below
		}
		return n.Counters().Drops
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("same seed produced different drop counts: %d vs %d", d1, d2)
	}
	if d1 < 200 || d1 > 400 {
		t.Fatalf("drop count %d far from expected ~300", d1)
	}
}

// A network with no drop rate draws no random number, so a call must
// not queue on the network's rng lock.
func TestRollWithoutFaultsTakesNoLock(t *testing.T) {
	n := New(Config{})
	n.rngMu.Lock() // held: a roll that wanted the rng would block forever
	defer n.rngMu.Unlock()
	if n.roll() {
		t.Fatal("fault-free roll dropped the exchange")
	}
}

func TestSetDownAndRecover(t *testing.T) {
	n := New(Config{})
	a := n.Attach("a", echo())
	n.Attach("b", echo())

	n.SetDown("b", true)
	if _, err := a.Call(context.Background(), "b", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("down node reachable: %v", err)
	}
	n.SetDown("b", false)
	if _, err := a.Call(context.Background(), "b", nil); err != nil {
		t.Fatalf("recovered node unreachable: %v", err)
	}
}

func TestPartition(t *testing.T) {
	n := New(Config{})
	a := n.Attach("a", echo())
	b := n.Attach("b", echo())
	n.Attach("c", echo())

	n.Partition("a", "b", true)
	if _, err := a.Call(context.Background(), "b", nil); !errors.Is(err, ErrTimeout) {
		t.Fatal("partition a->b not enforced")
	}
	if _, err := b.Call(context.Background(), "a", nil); !errors.Is(err, ErrTimeout) {
		t.Fatal("partition b->a not enforced")
	}
	if _, err := a.Call(context.Background(), "c", nil); err != nil {
		t.Fatalf("unrelated link affected: %v", err)
	}
	n.Partition("a", "b", false)
	if _, err := a.Call(context.Background(), "b", nil); err != nil {
		t.Fatalf("healed link still cut: %v", err)
	}
}

func TestClose(t *testing.T) {
	n := New(Config{})
	a := n.Attach("a", echo())
	b := n.Attach("b", echo())
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := a.Call(context.Background(), "b", nil); !errors.Is(err, ErrTimeout) {
		t.Fatal("closed endpoint still reachable")
	}
	if _, err := b.Call(context.Background(), "a", nil); !errors.Is(err, ErrClosed) {
		t.Fatal("closed endpoint can still send")
	}
}

func TestCountersAndStats(t *testing.T) {
	n := New(Config{})
	a := n.Attach("a", echo())
	n.Attach("b", echo())

	const calls = 10
	for i := 0; i < calls; i++ {
		if _, err := a.Call(context.Background(), "b", []byte("1234")); err != nil {
			t.Fatal(err)
		}
	}
	c := n.Counters()
	if c.Calls != calls {
		t.Fatalf("Calls = %d, want %d", c.Calls, calls)
	}
	if c.BytesOut != 4*calls {
		t.Fatalf("BytesOut = %d, want %d", c.BytesOut, 4*calls)
	}
	if c.BytesIn != int64((4+5)*calls) {
		t.Fatalf("BytesIn = %d, want %d", c.BytesIn, (4+5)*calls)
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := New(Config{})
	var served sync.Map
	for i := 0; i < 8; i++ {
		addr := Addr(fmt.Sprintf("srv-%d", i))
		n.Attach(addr, HandlerFunc(func(_ context.Context, from Addr, p []byte) ([]byte, error) {
			served.Store(string(p), true)
			return p, nil
		}))
	}
	client := n.Attach("client", echo())

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				to := Addr(fmt.Sprintf("srv-%d", (g+i)%8))
				msg := fmt.Sprintf("g%d-i%d", g, i)
				if _, err := client.Call(context.Background(), to, []byte(msg)); err != nil {
					t.Errorf("Call: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	count := 0
	served.Range(func(_, _ any) bool { count++; return true })
	if count != 16*50 {
		t.Fatalf("served %d distinct messages, want %d", count, 16*50)
	}
}

// TestCallCtxAbortsHungHandler: a handler that never returns must not
// hold the caller hostage — a context deadline aborts the in-flight
// wait while the handler goroutine finishes on its own.
func TestCallCtxAbortsHungHandler(t *testing.T) {
	n := New(Config{})
	block := make(chan struct{})
	defer close(block)
	n.Attach("hung", HandlerFunc(func(context.Context, Addr, []byte) ([]byte, error) {
		<-block
		return nil, nil
	}))
	a := n.Attach("a", echo())

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := a.Call(ctx, "hung", []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call to hung handler = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Call took %v; the deadline should abort the wait", elapsed)
	}

	// A pre-canceled context refuses before any network accounting.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := a.Call(cctx, "hung", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Call under canceled ctx = %v, want Canceled", err)
	}
}
