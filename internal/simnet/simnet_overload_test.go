package simnet

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dharma/internal/admission"
)

// TestCancelStormBoundsGoroutines is the regression test for the
// cancellation goroutine leak: 10k in-flight cancellable RPCs against a
// handler that never returns (and ignores its ctx) used to leave 10k
// blocked handler goroutines behind. With a bounded work queue the
// endpoint admits at most QueueDepth of them and answers busy to the
// rest, so the goroutine count stays pinned near the cap.
func TestCancelStormBoundsGoroutines(t *testing.T) {
	const (
		queueDepth = 32
		callers    = 10_000
	)
	n := New(Config{Admission: admission.Config{QueueDepth: queueDepth}})
	block := make(chan struct{})
	hung := n.Attach("hung", HandlerFunc(func(context.Context, Addr, []byte) ([]byte, error) {
		<-block // deliberately deaf to ctx: the worst-case handler
		return nil, nil
	})).(*endpoint)
	a := n.Attach("a", echo())

	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var busy, canceled sync.Map // caller index -> true
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := a.Call(ctx, "hung", []byte("x"))
			switch {
			case errors.Is(err, ErrBusy):
				busy.Store(i, true)
			case errors.Is(err, context.Canceled):
				canceled.Store(i, true)
			}
		}(i)
	}
	// Let admission engage before cancelling: the spawn loop races
	// cancel() on small GOMAXPROCS, and a caller that only gets scheduled
	// after cancellation bails at Call's entry ctx check without ever
	// reaching the queue. The deaf handler never releases its slots, so
	// once more than queueDepth callers have entered, a busy answer is
	// guaranteed and the counter is monotonic.
	waitUntil(t, 10*time.Second, func() bool { return n.Counters().Busy > 0 })
	cancel()
	wg.Wait()

	// Callers are gone; only admitted handler goroutines (≤ queueDepth)
	// may remain. Allow generous slack for runtime/test goroutines.
	deadline := time.Now().Add(5 * time.Second)
	budget := before + queueDepth + 50
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= budget || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if now > budget {
		t.Fatalf("goroutines after cancel storm = %d, budget %d (before=%d, cap=%d): handler goroutines are unbounded",
			now, budget, before, queueDepth)
	}

	nBusy, nCanceled := mapLen(&busy), mapLen(&canceled)
	if nBusy == 0 {
		t.Fatal("no caller saw ErrBusy; admission did not engage")
	}
	if nBusy+nCanceled != callers {
		t.Fatalf("busy(%d) + canceled(%d) != callers(%d)", nBusy, nCanceled, callers)
	}
	if got := n.Counters().Busy; got != int64(nBusy) {
		t.Fatalf("Counters().Busy = %d, want %d", got, nBusy)
	}
	if got := hung.AdmissionStats().Rejected(); got != int64(nBusy) {
		t.Fatalf("hung endpoint rejected %d, want %d", got, nBusy)
	}

	// Unblocking the handler drains the queue and frees every slot: the
	// endpoint must accept new work again.
	close(block)
	waitUntil(t, 5*time.Second, func() bool {
		_, err := a.Call(context.Background(), "hung", nil)
		return err == nil
	})
}

// TestBusyAfterQueueDrain: busy is a transient answer — once in-flight
// work completes, the same endpoint admits again without reattachment.
func TestBusyAfterQueueDrain(t *testing.T) {
	n := New(Config{Admission: admission.Config{QueueDepth: 1}})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	n.Attach("srv", HandlerFunc(func(_ context.Context, _ Addr, p []byte) ([]byte, error) {
		entered <- struct{}{}
		<-gate
		return append([]byte(nil), p...), nil
	}))
	a := n.Attach("a", echo())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(ctx, "srv", []byte("first"))
		done <- err
	}()
	<-entered // the single slot is now held

	if _, err := a.Call(context.Background(), "srv", []byte("second")); !errors.Is(err, ErrBusy) {
		t.Fatalf("call against a full depth-1 queue: got %v, want ErrBusy", err)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("first call: %v", err)
	}
	if _, err := a.Call(context.Background(), "srv", []byte("third")); err != nil {
		t.Fatalf("call after drain: %v", err)
	}
}

// TestPerPeerRateLimitIsolatesPeers: a hog exceeding its token bucket is
// rejected while an independent peer is untouched.
func TestPerPeerRateLimitIsolatesPeers(t *testing.T) {
	n := New(Config{Admission: admission.Config{PerPeerRate: 1}})
	n.Attach("srv", echo())
	hog := n.Attach("hog", echo())
	quiet := n.Attach("quiet", echo())

	var hogBusy int
	for i := 0; i < 20; i++ {
		if _, err := hog.Call(context.Background(), "srv", nil); errors.Is(err, ErrBusy) {
			hogBusy++
		}
	}
	if hogBusy == 0 {
		t.Fatal("hog was never rate-limited")
	}
	if _, err := quiet.Call(context.Background(), "srv", nil); err != nil {
		t.Fatalf("quiet peer rejected alongside the hog: %v", err)
	}
}

func mapLen(m *sync.Map) int {
	c := 0
	m.Range(func(_, _ any) bool { c++; return true })
	return c
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
