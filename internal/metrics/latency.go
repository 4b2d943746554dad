package metrics

import "sort"

// Percentile returns the p-th percentile (p in [0,100]) of a sample by
// the nearest-rank method on a sorted copy. An empty sample yields 0.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	switch {
	case p <= 0:
		return sorted[0]
	case p >= 100:
		return sorted[len(sorted)-1]
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
