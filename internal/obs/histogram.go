package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets covers int64 samples in power-of-two buckets: bucket i
// holds samples v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 holds v <= 0). 48 buckets reach 2^47 ns ≈ 39 hours — far
// past any latency this stack produces; larger samples clamp into the
// last bucket.
const histBuckets = 48

// Histogram is a fixed-bucket log-scale histogram over int64 samples.
// The zero value is ready to use. Observe is one atomic add per field —
// no locks, no allocation — so it can sit inside the 0 allocs/op paths
// (codec round trip, Table.Closest, the lookup inner loop).
//
// Quantiles come back as the *lower bound* of the bucket holding the
// nearest-rank sample, so for any true sample value v the reported
// quantile q satisfies q <= v < 2q (and q == v when v is an exact
// power of two or <= 1) — a factor-of-two resolution that matches what
// power-of-two bucketing can promise.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// bucketIndex maps a sample to its bucket: 0 for v <= 0, else
// bits.Len64(v) clamped to the last bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketLower returns the smallest sample value landing in bucket i
// (the quantile resolution floor). Bucket 0 covers v <= 0.
func bucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << (i - 1)
}

// bucketUpper returns the largest sample value landing in bucket i,
// i.e. the Prometheus `le` bound. The last bucket is unbounded in
// spirit; its nominal bound is still finite so cumulative exposition
// stays monotone before the +Inf bucket.
func bucketUpper(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= histBuckets-1 {
		i = histBuckets - 1
	}
	return int64(1)<<i - 1
}

// Observe records one duration sample. No-op on a nil receiver.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(int64(d)) }

// ObserveN records one raw int64 sample. No-op on a nil receiver.
func (h *Histogram) ObserveN(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples recorded (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sample total (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the p-th percentile (p in [0,100]) as the lower
// bound of the bucket containing the nearest-rank sample, using the
// same nearest-rank formula as metrics.Percentile so the two agree up
// to bucket resolution. An empty (or nil) histogram yields 0.
//
// Concurrent writers may race individual bucket loads; the result is
// then correct for *some* interleaving of the in-flight observations,
// which is all a monitoring read needs.
func (h *Histogram) Quantile(p float64) int64 {
	if h == nil {
		return 0
	}
	var cum [histBuckets]uint64
	var n uint64
	for i := range cum {
		n += h.buckets[i].Load()
		cum[i] = n
	}
	if n == 0 {
		return 0
	}
	// Nearest-rank, mirroring metrics.Percentile: the q-th sample
	// (0-based) of the sorted sequence.
	var rank uint64
	switch {
	case p <= 0:
		rank = 0
	case p >= 100:
		rank = n - 1
	default:
		r := int64(p/100*float64(n)+0.5) - 1
		if r < 0 {
			r = 0
		}
		if uint64(r) >= n {
			r = int64(n - 1)
		}
		rank = uint64(r)
	}
	for i := range cum {
		if cum[i] > rank {
			return bucketLower(i)
		}
	}
	return bucketLower(histBuckets - 1)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state,
// safe to serialize or compare.
type HistogramSnapshot struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     int64
}

// Snapshot copies the histogram's current state (zero value on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}
