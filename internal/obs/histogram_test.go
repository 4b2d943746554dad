package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dharma/internal/metrics"
)

// TestQuantileMatchesPercentile cross-checks histogram quantiles
// against the exact nearest-rank metrics.Percentile on random samples.
// Power-of-two buckets promise factor-of-two resolution: the reported
// quantile q must be the lower bound of the bucket holding the exact
// nearest-rank value v, i.e. q <= v < 2q (q == v == 0 for v <= 0).
func TestQuantileMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		h := new(Histogram)
		sample := make([]float64, n)
		for i := range sample {
			// Mix of magnitudes: ns-scale latencies from ~1µs to ~4s.
			v := int64(1000) << uint(rng.Intn(22))
			v += rng.Int63n(v)
			h.ObserveN(v)
			sample[i] = float64(v)
		}
		for _, p := range []float64{0, 10, 50, 90, 99, 99.9, 100} {
			exact := metrics.Percentile(sample, p)
			got := h.Quantile(p)
			if exact <= 0 {
				if got != 0 {
					t.Fatalf("trial %d p%v: exact %v but histogram %d", trial, p, exact, got)
				}
				continue
			}
			if float64(got) > exact || exact >= float64(2*got) {
				t.Fatalf("trial %d p%v: exact %v outside [q, 2q) for q=%d (n=%d)",
					trial, p, exact, got, n)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	if q := h.Quantile(50); q != 0 {
		t.Fatalf("empty histogram p50 = %d, want 0", q)
	}
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if q := nilH.Quantile(99); q != 0 {
		t.Fatalf("nil histogram p99 = %d, want 0", q)
	}
	h.ObserveN(-5)
	h.ObserveN(0)
	if q := h.Quantile(100); q != 0 {
		t.Fatalf("all-nonpositive p100 = %d, want 0", q)
	}
	h.ObserveN(1 << 62) // clamps into the last bucket without panicking
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
}

// TestConcurrentObserve hammers one histogram from many goroutines and
// checks the totals are exact — the -race run doubles as the data-race
// proof for the lock-free record path.
func TestConcurrentObserve(t *testing.T) {
	const (
		workers = 8
		perG    = 10000
	)
	h := new(Histogram)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.ObserveN(1 + rng.Int63n(1<<30))
			}
		}(int64(w))
	}
	// Concurrent readers must not trip the race detector either.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Quantile(99)
			_ = h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := h.Count(); got != workers*perG {
		t.Fatalf("count = %d, want %d", got, workers*perG)
	}
	var bucketTotal uint64
	s := h.Snapshot()
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != workers*perG {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*perG)
	}
	if s.Sum <= 0 {
		t.Fatalf("sum = %d, want positive", s.Sum)
	}
}

func TestBucketBounds(t *testing.T) {
	for _, v := range []int64{1, 2, 3, 7, 8, 1023, 1024, 1 << 40} {
		i := bucketIndex(v)
		if lo, hi := bucketLower(i), bucketUpper(i); v < lo || v > hi {
			t.Fatalf("sample %d landed in bucket %d [%d, %d]", v, i, lo, hi)
		}
	}
	if bucketIndex(0) != 0 || bucketIndex(-1) != 0 {
		t.Fatal("nonpositive samples must land in bucket 0")
	}
}

// BenchmarkHistogramObserve is alloc-gated: recording must stay
// 0 allocs/op so instruments can live inside the codec and lookup hot
// paths without moving their budgets.
func BenchmarkHistogramObserve(b *testing.B) {
	h := new(Histogram)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveN(int64(i)*7919 + 1)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := new(Counter)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramVecObserve(b *testing.B) {
	reg := NewRegistry()
	vec := reg.HistogramVec("x", "", "kind", []string{"a", "b", "c", "d"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vec.At(i & 3).ObserveN(int64(i))
	}
}
