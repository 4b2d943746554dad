package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4), sorted by metric name.
// Duration histograms expose `le` bounds and `_sum` in seconds, the
// Prometheus base unit; value histograms expose raw sample bounds.
// Scraping is the cold path: it allocates freely.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, e := range r.snapshot() {
		writeEntry(&b, e)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeEntry(b *strings.Builder, e *entry) {
	if e.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", e.name, e.help)
	}
	switch e.kind {
	case kindCounter:
		fmt.Fprintf(b, "# TYPE %s counter\n", e.name)
		if len(e.labels) == 0 {
			fmt.Fprintf(b, "%s %d\n", e.name, e.counter.Load())
			return
		}
		for i, lv := range e.labels {
			writeName(b, e.name, e.label, lv, "")
			fmt.Fprintf(b, " %d\n", e.counters[i].Load())
		}
	case kindCounterFunc:
		fmt.Fprintf(b, "# TYPE %s counter\n%s %d\n", e.name, e.name, e.fn())
	case kindGaugeFunc:
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %d\n", e.name, e.name, e.fn())
	case kindHistogram, kindValueHist:
		fmt.Fprintf(b, "# TYPE %s histogram\n", e.name)
		if len(e.labels) == 0 {
			writeHistogram(b, e.name, "", "", e.hists[0], e.kind == kindHistogram)
			return
		}
		for i, lv := range e.labels {
			writeHistogram(b, e.name, e.label, lv, e.hists[i], e.kind == kindHistogram)
		}
	}
}

// writeHistogram emits one histogram series (optionally labeled).
// Buckets above the highest nonzero one are elided — the +Inf bucket
// carries the total — keeping 48-bucket output readable.
func writeHistogram(b *strings.Builder, name, label, lv string, h *Histogram, seconds bool) {
	s := h.Snapshot()
	top := -1
	for i := range s.Buckets {
		if s.Buckets[i] != 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += s.Buckets[i]
		bound := formatBound(bucketUpper(i), seconds)
		writeName(b, name+"_bucket", label, lv, `le="`+bound+`"`)
		fmt.Fprintf(b, " %d\n", cum)
	}
	writeName(b, name+"_bucket", label, lv, `le="+Inf"`)
	fmt.Fprintf(b, " %d\n", s.Count)
	writeName(b, name+"_sum", label, lv, "")
	if seconds {
		fmt.Fprintf(b, " %s\n", strconv.FormatFloat(float64(s.Sum)/1e9, 'g', -1, 64))
	} else {
		fmt.Fprintf(b, " %d\n", s.Sum)
	}
	writeName(b, name+"_count", label, lv, "")
	fmt.Fprintf(b, " %d\n", s.Count)
}

// writeName emits `name{label="lv",extra}` with whichever parts are set.
func writeName(b *strings.Builder, name, label, lv, extra string) {
	b.WriteString(name)
	if label == "" && extra == "" {
		return
	}
	b.WriteByte('{')
	if label != "" {
		b.WriteString(label)
		b.WriteString(`="`)
		b.WriteString(lv)
		b.WriteByte('"')
		if extra != "" {
			b.WriteByte(',')
		}
	}
	b.WriteString(extra)
	b.WriteByte('}')
}

// formatBound renders a bucket's upper bound: seconds with full float
// precision for duration histograms, a plain integer for value ones.
func formatBound(upper int64, seconds bool) string {
	if !seconds {
		return strconv.FormatInt(upper, 10)
	}
	return strconv.FormatFloat(float64(upper)/1e9, 'g', -1, 64)
}
