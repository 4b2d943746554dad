package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestExpositionRoundTrip renders a populated registry and parses it
// back with the scrape-side parser — the two halves of the pipeline
// must agree on every value.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dharma_rpc_total", "RPCs served.").Add(42)
	reg.CounterFunc("dharma_busy_total", "Busy rejections.", func() int64 { return 13 })
	reg.GaugeFunc("dharma_table_peers", "Routing table size.", func() int64 { return 99 })

	h := reg.Histogram("dharma_lookup_seconds", "Lookup wall time.")
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	rounds := reg.ValueHistogram("dharma_lookup_rounds", "Rounds per lookup.")
	for i := 0; i < 100; i++ {
		rounds.ObserveN(int64(3 + i%5))
	}
	vec := reg.HistogramVec("dharma_rpc_seconds", "Serve latency by kind.",
		"kind", []string{"PING", "FIND_NODE"})
	vec.At(0).Observe(time.Millisecond)
	vec.At(1).Observe(10 * time.Millisecond)
	vec.At(1).Observe(20 * time.Millisecond)
	cvec := reg.CounterVec("dharma_rpc_bytes_total", "Bytes by kind.",
		"kind", []string{"PING", "FIND_NODE"})
	cvec.At(0).Add(128)
	cvec.At(1).Add(4096)
	cvec.At(99).Add(1) // out of range: no-op, not a panic

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	got, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, text)
	}
	if m := got["dharma_rpc_total"]; m == nil || m.Value != 42 {
		t.Fatalf("counter round trip: %+v", m)
	}
	if m := got["dharma_busy_total"]; m == nil || m.Value != 13 {
		t.Fatalf("counter func round trip: %+v", m)
	}
	if m := got["dharma_table_peers"]; m == nil || m.Value != 99 || m.Type != "gauge" {
		t.Fatalf("gauge func round trip: %+v", m)
	}
	if m := got["dharma_lookup_seconds"]; m == nil || m.Count != 1000 {
		t.Fatalf("histogram round trip: %+v", m)
	}
	if m := got["dharma_lookup_rounds"]; m == nil || m.Count != 100 {
		t.Fatalf("value histogram round trip: %+v", m)
	}
	if m := got["dharma_rpc_seconds{FIND_NODE}"]; m == nil || m.Count != 2 {
		t.Fatalf("labeled histogram round trip: %+v", m)
	}
	if m := got["dharma_rpc_seconds{PING}"]; m == nil || m.Count != 1 {
		t.Fatalf("labeled histogram round trip: %+v", m)
	}
	if m := got["dharma_rpc_bytes_total{FIND_NODE}"]; m == nil || m.Value != 4096 {
		t.Fatalf("labeled counter round trip: %+v", m)
	}

	// The scraped p50 of a 1..1000ms uniform sample must land within a
	// factor of two of 500ms, in seconds.
	p50 := got["dharma_lookup_seconds"].Quantile(50)
	if p50 < 0.25 || p50 > 1.0 {
		t.Fatalf("scraped p50 = %v s, want within [0.25, 1.0]", p50)
	}

	// Spot-check the text format itself.
	for _, want := range []string{
		"# TYPE dharma_rpc_total counter",
		"# TYPE dharma_lookup_seconds histogram",
		`dharma_rpc_seconds_bucket{kind="PING",le="+Inf"} 1`,
		"dharma_lookup_seconds_count 1000",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestCumulativeBucketsMonotone: Prometheus consumers require
// cumulative bucket counts to be nondecreasing and end at _count.
func TestCumulativeBucketsMonotone(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("m", "")
	for i := 0; i < 500; i++ {
		h.ObserveN(int64(1) << uint(i%30))
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var last uint64
	var sawInf bool
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "m_bucket") {
			continue
		}
		var v uint64
		if _, err := fmtSscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("cumulative buckets decreased: %q after %d", line, last)
		}
		last = v
		if strings.Contains(line, "+Inf") {
			sawInf = true
			if v != 500 {
				t.Fatalf("+Inf bucket = %d, want 500", v)
			}
		}
	}
	if !sawInf {
		t.Fatal("no +Inf bucket emitted")
	}
}

func fmtSscan(s string, v *uint64) (int, error) {
	var err error
	var n uint64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, &parseErr{s}
		}
		n = n*10 + uint64(s[i]-'0')
	}
	*v = n
	return 1, err
}

type parseErr struct{ s string }

func (e *parseErr) Error() string { return "not a number: " + e.s }

// TestNilRegistry: a nil registry must hand out nil instruments whose
// every method is a no-op — this is the "telemetry off" configuration
// every instrumented package relies on.
func TestNilRegistry(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c", "")
	h := reg.Histogram("h", "")
	vh := reg.ValueHistogram("v", "")
	vec := reg.HistogramVec("hv", "", "k", []string{"a"})
	reg.CounterFunc("cf", "", func() int64 { return 1 })
	reg.GaugeFunc("gf", "", func() int64 { return 1 })

	c.Inc()
	c.Add(5)
	h.Observe(time.Second)
	vh.ObserveN(9)
	vec.At(0).Observe(time.Second)
	vec.At(99).Observe(time.Second)
	if c.Load() != 0 || h.Count() != 0 || h.Quantile(50) != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry exposition: %q, %v", b.String(), err)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("same", "")
	b := reg.Counter("same", "")
	if a != b {
		t.Fatal("re-registering a name must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind re-registration must panic")
		}
	}()
	reg.Histogram("same", "")
}

// TestHandler exercises the full ops endpoint: metrics, traces JSON
// and pprof. /metrics is the one view of the counters: /debug/stats
// answers 404.
func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up", "").Inc()
	h := Handler(reg, func() any { return []string{"trace-a"} })
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up 1") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, _ := get("/debug/stats"); code != 404 {
		t.Fatalf("/debug/stats: %d, want 404", code)
	}
	if code, body := get("/debug/traces"); code != 200 || !strings.Contains(body, "trace-a") {
		t.Fatalf("/debug/traces: %d %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
}
