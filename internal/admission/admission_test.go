package admission

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestQueueDepthCapsConcurrentAdmissions(t *testing.T) {
	c := New(Config{QueueDepth: 3})

	var releases []func()
	for i := 0; i < 3; i++ {
		rel, err := c.Admit("peer-a")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		releases = append(releases, rel)
	}
	if _, err := c.Admit("peer-a"); !errors.Is(err, ErrBusy) {
		t.Fatalf("4th admit over depth 3: got %v, want ErrBusy", err)
	}
	st := c.Stats()
	if st.Admitted != 3 || st.RejectedQueue != 1 || st.InFlight != 3 {
		t.Fatalf("stats = %+v, want admitted=3 rejectedQueue=1 inFlight=3", st)
	}

	// Releasing one slot makes room for exactly one more.
	releases[0]()
	rel, err := c.Admit("peer-b")
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel()
	for _, r := range releases[1:] {
		r()
	}
	if got := c.Stats().InFlight; got != 0 {
		t.Fatalf("inFlight after all releases = %d, want 0", got)
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	c := New(Config{QueueDepth: 1})
	rel, err := c.Admit("p")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel() // double release must not free a phantom slot
	if got := c.Stats().InFlight; got != 0 {
		t.Fatalf("inFlight = %d, want 0", got)
	}
	r1, err := c.Admit("p")
	if err != nil {
		t.Fatal(err)
	}
	defer r1()
	if _, err := c.Admit("p"); !errors.Is(err, ErrBusy) {
		t.Fatalf("depth-1 queue admitted twice after a double release: %v", err)
	}
}

func TestPerPeerTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	c := New(Config{
		QueueDepth:  64, // above the burst, so only the rate gate refuses
		PerPeerRate: 10, // 10 req/s, so the burst is max(8, 20) = 20
		Now:         func() time.Time { return now },
	})
	const burst = 20

	// The burst passes, the next request is rejected.
	for i := 0; i < burst; i++ {
		rel, err := c.Admit("hog")
		if err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		rel()
	}
	if _, err := c.Admit("hog"); !errors.Is(err, ErrBusy) {
		t.Fatalf("over-burst admit: got %v, want ErrBusy", err)
	}
	if got := c.Stats().RejectedRate; got != 1 {
		t.Fatalf("RejectedRate = %d, want 1", got)
	}

	// A different peer has its own bucket.
	if rel, err := c.Admit("quiet"); err != nil {
		t.Fatalf("independent peer rejected: %v", err)
	} else {
		rel()
	}

	// 100ms at 10 req/s refills exactly one token.
	now = now.Add(100 * time.Millisecond)
	rel, err := c.Admit("hog")
	if err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	rel()
	if _, err := c.Admit("hog"); !errors.Is(err, ErrBusy) {
		t.Fatalf("second admit after one-token refill: got %v, want ErrBusy", err)
	}

	// Refill never exceeds the burst capacity.
	now = now.Add(time.Hour)
	for i := 0; i < burst; i++ {
		rel, err := c.Admit("hog")
		if err != nil {
			t.Fatalf("post-idle admit %d: %v", i, err)
		}
		rel()
	}
	if _, err := c.Admit("hog"); !errors.Is(err, ErrBusy) {
		t.Fatalf("burst cap not enforced after idle: %v", err)
	}
}

// TestBucketsStayBounded: 10,000 distinct one-request peers arrive 1ms
// apart while a hog asks every millisecond. Idle buckets are forgotten
// once the map reaches maxBuckets, and the hog is still held to its
// rate.
func TestBucketsStayBounded(t *testing.T) {
	now := time.Unix(1000, 0)
	const rate, burst = 10, 20
	c := New(Config{PerPeerRate: rate, Now: func() time.Time { return now }})
	start := now
	hogAdmitted, peak := 0, 0
	for i := range 10_000 {
		now = now.Add(time.Millisecond)
		if rel, err := c.Admit(fmt.Sprintf("10.0.%d.%d:%d", i/256%256, i%256, 40000+i)); err != nil {
			t.Fatalf("fresh peer %d refused: %v", i, err)
		} else {
			rel()
		}
		if rel, err := c.Admit("hog"); err == nil {
			hogAdmitted++
			rel()
		}
		c.mu.Lock()
		peak = max(peak, len(c.buckets))
		c.mu.Unlock()
	}
	if peak > maxBuckets {
		t.Fatalf("bucket map peaked at %d entries, want at most %d", peak, maxBuckets)
	}
	// The hog may spend its burst plus what the rate refilled, no more.
	if limit := burst + int(now.Sub(start).Seconds()*rate); hogAdmitted > limit {
		t.Fatalf("hog admitted %d times, want at most %d", hogAdmitted, limit)
	}
	if _, err := c.Admit("hog"); !errors.Is(err, ErrBusy) {
		t.Fatalf("active hog: got %v, want ErrBusy", err)
	}
}

// TestConcurrentAdmitRelease runs both forms of admission — Admit's
// release closure and the Enter/Leave pair the transports use — from
// several goroutines at once.
func TestConcurrentAdmitRelease(t *testing.T) {
	const depth = 16
	for _, tc := range []struct {
		name  string
		enter func(c *Controller) (func(), error)
	}{
		{"admit", func(c *Controller) (func(), error) { return c.Admit("p") }},
		{"enter_leave", func(c *Controller) (func(), error) {
			if err := c.Enter("p"); err != nil {
				return nil, err
			}
			return c.Leave, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{QueueDepth: depth})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						leave, err := tc.enter(c)
						if err != nil {
							continue
						}
						if in := c.Stats().InFlight; in > depth {
							t.Errorf("inFlight %d exceeds depth %d", in, depth)
						}
						leave()
					}
				}()
			}
			wg.Wait()
			st := c.Stats()
			if st.InFlight != 0 {
				t.Fatalf("inFlight after quiesce = %d, want 0", st.InFlight)
			}
			if st.Admitted == 0 {
				t.Fatal("no admissions recorded")
			}
		})
	}
}
