package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dharma/internal/kademlia"
	"dharma/internal/obs"
)

// The scrape subcommand reads a serving node's ops endpoint
// (dharma-node serve -debug-addr) and reports what the node is doing:
// per-kind RPC latency percentiles, transport and admission traffic,
// the stats snapshot, and the hop-by-hop timeline of a recent lookup
// trace. With -assert-rpc / -assert-trace it doubles as the check the
// metrics smoke script runs against a live fleet.
func runScrape(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("scrape", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9600", "ops endpoint address (dharma-node serve -debug-addr)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	assertRPC := fs.Bool("assert-rpc", false,
		"exit nonzero unless the node reports served RPCs in its latency histograms")
	assertTrace := fs.Bool("assert-trace", false,
		"exit nonzero unless the node retains at least one lookup trace with spans")
	assertMin := fs.String("assert-min", "",
		`comma-separated name=min pairs; exit nonzero unless each scraped metric, summed across its label sets (histograms by count), reaches its minimum — e.g. -assert-min dharma_session_cache_size=1,dharma_rpc_auth_rejected_total=1`)
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	logger := benchLogger(*logLevel)

	base := "http://" + *addr
	client := &http.Client{Timeout: *timeout}

	body, err := fetch(ctx, client, base+"/metrics")
	if err != nil {
		logger.Error("scrape /metrics failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	metrics, err := obs.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		logger.Error("parse /metrics failed", "err", err)
		os.Exit(1)
	}
	printMetrics(metrics)

	stats, err := fetch(ctx, client, base+"/debug/stats")
	if err != nil {
		logger.Error("scrape /debug/stats failed", "err", err)
		os.Exit(1)
	}
	fmt.Printf("\nstats: %s\n", strings.TrimSpace(string(stats)))

	tbody, err := fetch(ctx, client, base+"/debug/traces")
	if err != nil {
		logger.Error("scrape /debug/traces failed", "err", err)
		os.Exit(1)
	}
	var traces []*kademlia.LookupTrace
	if err := json.Unmarshal(tbody, &traces); err != nil {
		logger.Error("decode /debug/traces failed", "err", err)
		os.Exit(1)
	}
	printTraces(traces)

	// pprof must answer too: profiles are part of the ops surface.
	if _, err := fetch(ctx, client, base+"/debug/pprof/cmdline"); err != nil {
		logger.Error("scrape /debug/pprof/cmdline failed", "err", err)
		os.Exit(1)
	}
	fmt.Println("\npprof: live")

	if *assertRPC {
		var served uint64
		for key, m := range metrics {
			if m.Name == "dharma_rpc_serve_seconds" && m.Type == "histogram" {
				logger.Debug("rpc histogram", "series", key, "count", m.Count)
				served += m.Count
			}
		}
		if served == 0 {
			logger.Error("assert-rpc failed: no served RPCs in dharma_rpc_serve_seconds")
			os.Exit(1)
		}
		fmt.Printf("assert-rpc ok: %d RPCs in serve histograms\n", served)
	}
	if *assertTrace {
		spans := 0
		for _, tr := range traces {
			spans += len(tr.Spans)
		}
		if len(traces) == 0 || spans == 0 {
			logger.Error("assert-trace failed: no retained lookup trace with spans",
				"traces", len(traces), "spans", spans)
			os.Exit(1)
		}
		fmt.Printf("assert-trace ok: %d traces, %d spans retained\n", len(traces), spans)
	}
	for _, spec := range strings.Split(*assertMin, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, minStr, ok := strings.Cut(spec, "=")
		if !ok {
			logger.Error("bad -assert-min spec (want name=min)", "spec", spec)
			os.Exit(2)
		}
		floor, err := strconv.ParseFloat(minStr, 64)
		if err != nil {
			logger.Error("bad -assert-min minimum", "spec", spec, "err", err)
			os.Exit(2)
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
			logger.Error("assert-min failed", "metric", name, "want-at-least", floor,
				"got", total, "present", seen)
			os.Exit(1)
		}
		fmt.Printf("assert-min ok: %s = %g (>= %g)\n", name, total, floor)
	}
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
func printMetrics(metrics map[string]*obs.ScrapedMetric) {
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("metrics:")
	for _, k := range keys {
		m := metrics[k]
		switch {
		case m.Type == "histogram":
			if m.Count == 0 {
				continue
			}
			fmt.Printf("  %-52s count=%-8d p50=%-12g p99=%g\n",
				k, m.Count, m.Quantile(50), m.Quantile(99))
		case m.Value != 0:
			fmt.Printf("  %-52s %g\n", k, m.Value)
		}
	}
}

// printTraces renders the newest retained lookup trace hop by hop —
// the "why was this navigate slow" answer, read off a live node.
func printTraces(traces []*kademlia.LookupTrace) {
	fmt.Printf("\ntraces retained: %d\n", len(traces))
	if len(traces) == 0 {
		return
	}
	tr := traces[0] // newest first
	why := "sampled"
	if tr.Slow {
		why = "slow"
	}
	fmt.Printf("newest trace %016x (%s): target=%s value=%t wall=%s rounds=%d tried=%d busy=%d found=%t\n",
		tr.TraceID, why, tr.Target.Short(), tr.Value, tr.Wall, tr.Rounds, tr.Tried, tr.Busy, tr.Found)
	for i, sp := range tr.Spans {
		fmt.Printf("  hop %-3d round=%-2d peer=%-22s kind=%-10s start=%-12s rtt=%-12s verdict=%s\n",
			i+1, sp.Round, sp.Peer.Addr, sp.Kind, sp.Start, sp.RTT, sp.Verdict)
	}
}

// benchLogger builds the bench's diagnostic logger; reports go to
// stdout as before, diagnostics go through slog on stderr.
func benchLogger(level string) *slog.Logger {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		lvl = slog.LevelInfo
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
}
