package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the consumer side of the pipeline: a minimal parser for
// the Prometheus text format WritePrometheus emits, used by
// `dharma-node scrape` so benchmark runs and live fleets report
// through one path. It understands exactly the subset this registry
// produces (one optional label, `le` histogram buckets) — it is not a
// general Prometheus client.

// ScrapedMetric is one parsed series: a scalar sample or an assembled
// histogram.
type ScrapedMetric struct {
	Name  string
	Label string // label value ("" when unlabeled); the label *name* is not kept
	Type  string // "counter", "gauge", or "histogram"

	Value float64 // scalar sample (counter/gauge)

	// Histogram state, reassembled from the cumulative buckets.
	Count  uint64
	Sum    float64
	Bounds []float64 // finite `le` bounds, ascending
	Cumul  []uint64  // cumulative counts matching Bounds
}

// Quantile recovers the p-th percentile from the scraped buckets with
// the same nearest-rank rule the server uses; the answer is the lower
// bound of the bucket holding that rank (0 for the first bucket).
func (m *ScrapedMetric) Quantile(p float64) float64 {
	if m == nil || m.Count == 0 {
		return 0
	}
	n := m.Count
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
	for i, c := range m.Cumul {
		if c > rank {
			if i == 0 {
				return 0
			}
			// The server's `le` bound is the bucket's inclusive upper
			// edge (2^i - 1 scaled); the next bucket's lower bound is
			// the previous bound rounded up — recover it as the
			// midpoint-free floor: previous upper + one resolution
			// step, which for this registry's power-of-two buckets is
			// simply the previous bound (lower = upper(i-1)+1 ≈ it).
			return m.Bounds[i-1]
		}
	}
	if len(m.Bounds) > 0 {
		return m.Bounds[len(m.Bounds)-1]
	}
	return 0
}

// ParsePrometheus parses a text exposition into metrics keyed by
// "name" or "name{labelvalue}" for labeled histogram members.
func ParsePrometheus(r io.Reader) (map[string]*ScrapedMetric, error) {
	out := make(map[string]*ScrapedMetric)
	types := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				f := strings.Fields(rest)
				if len(f) == 2 {
					types[f[0]] = f[1]
				}
			}
			continue
		}
		if err := parseSample(line, types, out); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, m := range out {
		sortBuckets(m)
	}
	return out, nil
}

func parseSample(line string, types map[string]string, out map[string]*ScrapedMetric) error {
	// Split "name{labels} value" / "name value".
	var name, labels, valstr string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return fmt.Errorf("obs: malformed sample %q", line)
		}
		name, labels, valstr = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
	} else {
		f := strings.Fields(line)
		if len(f) != 2 {
			return fmt.Errorf("obs: malformed sample %q", line)
		}
		name, valstr = f[0], f[1]
	}
	val, err := strconv.ParseFloat(valstr, 64)
	if err != nil {
		return fmt.Errorf("obs: bad value in %q: %w", line, err)
	}

	base, suffix := name, ""
	for _, s := range [...]string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, s); ok && types[b] == "histogram" {
			base, suffix = b, s
			break
		}
	}

	le, lv := "", ""
	for _, kv := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		v = strings.Trim(v, `"`)
		if k == "le" {
			le = v
		} else {
			lv = v
		}
	}

	key := base
	if lv != "" {
		key = base + "{" + lv + "}"
	}
	m := out[key]
	if m == nil {
		m = &ScrapedMetric{Name: base, Label: lv, Type: types[base]}
		if m.Type == "" {
			m.Type = "counter"
		}
		out[key] = m
	}
	switch suffix {
	case "_bucket":
		if le == "+Inf" {
			return nil // Count comes from _count; +Inf duplicates it.
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("obs: bad le bound in %q: %w", line, err)
		}
		m.Bounds = append(m.Bounds, bound)
		m.Cumul = append(m.Cumul, uint64(val))
	case "_sum":
		m.Sum = val
	case "_count":
		m.Count = uint64(val)
	default:
		m.Value = val
	}
	return nil
}

// sortBuckets orders a histogram's buckets by bound and appends the
// implicit +Inf cumulative count so Quantile can always terminate.
func sortBuckets(m *ScrapedMetric) {
	if m.Type != "histogram" || len(m.Bounds) == 0 {
		return
	}
	idx := make([]int, len(m.Bounds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return m.Bounds[idx[a]] < m.Bounds[idx[b]] })
	bounds := make([]float64, len(idx))
	cumul := make([]uint64, len(idx))
	for i, j := range idx {
		bounds[i], cumul[i] = m.Bounds[j], m.Cumul[j]
	}
	m.Bounds, m.Cumul = bounds, cumul
	if m.Count > 0 {
		m.Bounds = append(m.Bounds, math.Inf(1))
		m.Cumul = append(m.Cumul, m.Count)
	}
}
