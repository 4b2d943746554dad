package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// minTailSamples is how many samples must lie beyond a percentile for
// it to be reported: below that the "percentile" is a handful of
// outliers, not a property of the distribution.
const minTailSamples = 10

// minP99Samples is the sample count a p99 needs under the rule above
// (1 % of 1,000 is 10 samples beyond it).
const minP99Samples = 1000

// median returns the middle value of xs (the mean of the two middle
// values for an even count), leaving xs as it was.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of an
// ascending-sorted sample, or zero for an empty one.
func percentile[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1 // less a hair: 0.9·100 is rank 90
	return sorted[max(rank, 0)]
}

// tailPercentile reports the highest of p90, p99, p99.9 that has at
// least minTailSamples samples beyond it in a sample of n, or 0 when
// not even p90 qualifies.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.90, 0.99, 0.999} {
		// Nearest rank, less a hair so that 0.9·100 counts as 90 exactly.
		if beyond := n - int(math.Ceil(q*float64(n)-1e-9)); beyond >= minTailSamples {
			best = q
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (exclusive), which is
// what the benchmark contract measures spread with. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise figure every bound is judged against. It is 0
// for fewer than two values or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
