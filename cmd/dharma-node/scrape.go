package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dharma/internal/kademlia"
	"dharma/internal/obs"
)

// scrape reads a serving node's ops endpoint (serve -debug-addr) and
// reports what the node is doing: per-kind RPC latency percentiles,
// transport and admission traffic, Table I's block operations, and the
// hop-by-hop timeline of a recent lookup trace. With -assert-rpc,
// -assert-trace and -assert-min it doubles as the fleet health check
// the metrics and auth smoke scripts run: a failed assertion is an
// error.
func scrape(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scrape", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9600", "ops endpoint address (dharma-node serve -debug-addr)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	assertRPC := fs.Bool("assert-rpc", false,
		"exit nonzero unless the node reports served RPCs in its latency histograms")
	assertTrace := fs.Bool("assert-trace", false,
		"exit nonzero unless the node retains at least one lookup trace with spans")
	assertMin := fs.String("assert-min", "",
		`comma-separated name=min pairs; exit nonzero unless each scraped metric, summed across its label sets (histograms by count), reaches its minimum — e.g. -assert-min dharma_session_cache_size=1,dharma_rpc_auth_rejected_total=1`)
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}

	base := "http://" + *addr
	client := &http.Client{Timeout: *timeout}

	body, err := fetch(ctx, client, base+"/metrics")
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	metrics, err := obs.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("parse /metrics: %w", err)
	}
	printMetrics(w, metrics)

	tbody, err := fetch(ctx, client, base+"/debug/traces")
	if err != nil {
		return fmt.Errorf("scrape /debug/traces: %w", err)
	}
	var traces []*kademlia.LookupTrace
	if err := json.Unmarshal(tbody, &traces); err != nil {
		return fmt.Errorf("decode /debug/traces: %w", err)
	}
	printTraces(w, traces)

	// pprof must answer too: profiles are part of the ops surface.
	if _, err := fetch(ctx, client, base+"/debug/pprof/cmdline"); err != nil {
		return fmt.Errorf("scrape /debug/pprof/cmdline: %w", err)
	}
	fmt.Fprintln(w, "\npprof: live")

	if *assertRPC {
		var served uint64
		for key, m := range metrics {
			if m.Name == "dharma_rpc_serve_seconds" && m.Type == "histogram" {
				logger.Debug("rpc histogram", "series", key, "count", m.Count)
				served += m.Count
			}
		}
		if served == 0 {
			return errors.New("assert-rpc failed: no served RPCs in dharma_rpc_serve_seconds")
		}
		fmt.Fprintf(w, "assert-rpc ok: %d RPCs in serve histograms\n", served)
	}
	if *assertTrace {
		spans := 0
		for _, tr := range traces {
			spans += len(tr.Spans)
		}
		if len(traces) == 0 || spans == 0 {
			return fmt.Errorf("assert-trace failed: no retained lookup trace with spans (%d traces, %d spans)",
				len(traces), spans)
		}
		fmt.Fprintf(w, "assert-trace ok: %d traces, %d spans retained\n", len(traces), spans)
	}
	for _, spec := range strings.Split(*assertMin, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, minStr, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -assert-min spec %q (want name=min)", spec)
		}
		floor, err := strconv.ParseFloat(minStr, 64)
		if err != nil {
			return fmt.Errorf("bad -assert-min minimum in %q: %w", spec, err)
		}
		var total float64
		seen := false
		for _, m := range metrics {
			if m.Name != name {
				continue
			}
			seen = true
			if m.Type == "histogram" {
				total += float64(m.Count)
			} else {
				total += m.Value
			}
		}
		if !seen || total < floor {
			return fmt.Errorf("assert-min failed: %s = %g, want at least %g (present: %t)", name, total, floor, seen)
		}
		fmt.Fprintf(w, "assert-min ok: %s = %g (>= %g)\n", name, total, floor)
	}
	return nil
}

func fetch(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, nil
}

// printMetrics summarizes the scraped registry: histograms as
// count/p50/p99, nonzero scalars as-is, sorted by series name.
func printMetrics(w io.Writer, metrics map[string]*obs.ScrapedMetric) {
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "metrics:")
	for _, k := range keys {
		m := metrics[k]
		switch {
		case m.Type == "histogram":
			if m.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-52s count=%-8d p50=%-12g p99=%g\n",
				k, m.Count, m.Quantile(50), m.Quantile(99))
		case m.Value != 0:
			fmt.Fprintf(w, "  %-52s %g\n", k, m.Value)
		}
	}
}

// printTraces renders the newest retained lookup trace hop by hop —
// the "why was this navigate slow" answer, read off a live node.
func printTraces(w io.Writer, traces []*kademlia.LookupTrace) {
	fmt.Fprintf(w, "\ntraces retained: %d\n", len(traces))
	if len(traces) == 0 {
		return
	}
	tr := traces[0] // newest first
	fmt.Fprintf(w, "newest trace %016x: target=%s value=%t wall=%s rounds=%d tried=%d busy=%d found=%t\n",
		tr.TraceID, tr.Target.Short(), tr.Value, tr.Wall, tr.Rounds, tr.Tried, tr.Busy, tr.Found)
	for i, sp := range tr.Spans {
		fmt.Fprintf(w, "  hop %-3d round=%-2d peer=%-22s kind=%-10s start=%-12s rtt=%-12s verdict=%s\n",
			i+1, sp.Round, sp.Peer.Addr, sp.Kind, sp.Start, sp.RTT, sp.Verdict)
	}
}
