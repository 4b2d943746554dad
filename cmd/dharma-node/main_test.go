package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dharma"
	"dharma/internal/admission"
	"dharma/internal/obs"
)

// TestServeConfig pins the serve flag → UDPPeerConfig mapping: the
// binary is a shim, so this table is its whole behaviour short of
// calling dharma.NewUDPPeer.
func TestServeConfig(t *testing.T) {
	defaults := dharma.UDPPeerConfig{
		Listen: "127.0.0.1:9000",
		Config: dharma.Config{Replication: 20, Alpha: 3, QueueDepth: admission.DefaultQueueDepth},
	}
	with := func(edit func(*dharma.UDPPeerConfig)) dharma.UDPPeerConfig {
		c := defaults
		edit(&c)
		return c
	}
	cases := []struct {
		name    string
		args    []string
		want    dharma.UDPPeerConfig
		wantOpt serveOptions
		wantErr string
	}{
		{
			name:    "defaults",
			want:    defaults,
			wantOpt: serveOptions{maintain: 10 * time.Minute, logLevel: "info"},
		},
		{
			name: "-k is the overlay's replication factor, not the engine's K",
			args: []string{"-k", "8", "-alpha", "5"},
			want: with(func(c *dharma.UDPPeerConfig) { c.Replication, c.Alpha = 8, 5 }),
		},
		{
			name: "addresses",
			args: []string{"-listen", "127.0.0.1:9001", "-bootstrap", "127.0.0.1:9000"},
			want: with(func(c *dharma.UDPPeerConfig) {
				c.Listen, c.Bootstrap = "127.0.0.1:9001", []string{"127.0.0.1:9000"}
			}),
		},
		{
			name: "durable, group fsync",
			args: []string{"-data-dir", "/d", "-fsync", "group"},
			want: with(func(c *dharma.UDPPeerConfig) { c.DataDir = "/d" }),
		},
		{
			name: "-fsync none",
			args: []string{"-data-dir", "/d", "-fsync", "none"},
			want: with(func(c *dharma.UDPPeerConfig) { c.DataDir, c.NoFsync = "/d", true }),
		},
		{
			name:    "-fsync each is gone",
			args:    []string{"-fsync", "each"},
			wantErr: "-fsync",
		},
		{
			name: "admission",
			args: []string{"-queue-depth", "64", "-peer-rate", "150"},
			want: with(func(c *dharma.UDPPeerConfig) { c.QueueDepth, c.PerPeerRate = 64, 150 }),
		},
		{
			name: "tracing and chaos",
			args: []string{"-trace-slow", "1ns", "-chaos-delay", "300ms"},
			want: with(func(c *dharma.UDPPeerConfig) {
				c.TraceSlow, c.ChaosDelay = time.Nanosecond, 300*time.Millisecond
			}),
		},
		{
			name:    "-trace-sample is gone",
			args:    []string{"-trace-sample", "1"},
			wantErr: "trace-sample",
		},
		{
			name: "security",
			args: []string{"-identity", "n.id", "-ca", "ca.pub", "-revocations", "rev.bin", "-require-auth"},
			want: with(func(c *dharma.UDPPeerConfig) {
				c.IdentityPath, c.CAPath, c.RevocationsPath, c.RequireAuth = "n.id", "ca.pub", "rev.bin", true
			}),
		},
		{
			name:    "-identity without -ca",
			args:    []string{"-identity", "n.id"},
			wantErr: "-identity and -ca",
		},
		{
			name:    "-ca without -identity",
			args:    []string{"-ca", "ca.pub"},
			wantErr: "-identity and -ca",
		},
		{
			name:    "process options stay out of the peer config",
			args:    []string{"-maintain", "1s", "-debug-addr", "127.0.0.1:9600", "-log-level", "debug"},
			want:    defaults,
			wantOpt: serveOptions{maintain: time.Second, debugAddr: "127.0.0.1:9600", logLevel: "debug"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, opt, err := serveConfig(tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("config:\n got %+v\nwant %+v", got, tc.want)
			}
			if tc.wantOpt != (serveOptions{}) && opt != tc.wantOpt {
				t.Errorf("options: got %+v, want %+v", opt, tc.wantOpt)
			}
		})
	}
}

// TestClientConfig: a client verb is a short-lived full member, so its
// -k is the engine's connection parameter while the overlay parameters
// are fixed at the fleet's defaults.
func TestClientConfig(t *testing.T) {
	base := dharma.UDPPeerConfig{
		Listen:    "127.0.0.1:0",
		Bootstrap: []string{"127.0.0.1:9000"},
		Config:    dharma.Config{Mode: dharma.Approximated, Replication: 20, Alpha: 3, K: 5},
	}
	with := func(edit func(*dharma.UDPPeerConfig)) dharma.UDPPeerConfig {
		c := base
		edit(&c)
		return c
	}
	cases := []struct {
		name    string
		cmd     string
		args    []string
		want    dharma.UDPPeerConfig
		wantOpt clientOptions
		wantErr string
	}{
		{
			name:    "insert",
			cmd:     "insert",
			args:    []string{"-r", "song", "-uri", "magnet:x", "-tags", "rock,60s"},
			want:    base,
			wantOpt: clientOptions{r: "song", uri: "magnet:x", tags: []string{"rock", "60s"}, top: 10, logLevel: "warn"},
		},
		{
			name: "-k is the engine's connection parameter",
			cmd:  "tag",
			args: []string{"-r", "song", "-t", "beatles", "-k", "3", "-bootstrap", "127.0.0.1:9001"},
			want: with(func(c *dharma.UDPPeerConfig) { c.K, c.Bootstrap = 3, []string{"127.0.0.1:9001"} }),
			wantOpt: clientOptions{
				r: "song", t: "beatles", top: 10, logLevel: "warn",
			},
		},
		{
			name:    "-mode approx is the default spelled out",
			cmd:     "resolve",
			args:    []string{"-r", "song", "-mode", "approx"},
			want:    base,
			wantOpt: clientOptions{r: "song", top: 10, logLevel: "warn"},
		},
		{
			name:    "naive mode, display cap, deadline",
			cmd:     "search",
			args:    []string{"-t", "rock", "-mode", "naive", "-top", "3", "-timeout", "100ms"},
			want:    with(func(c *dharma.UDPPeerConfig) { c.Mode = dharma.Naive }),
			wantOpt: clientOptions{t: "rock", top: 3, timeout: 100 * time.Millisecond, logLevel: "warn"},
		},
		{
			name: "secured client",
			cmd:  "resolve",
			args: []string{"-r", "song", "-identity", "c.id", "-ca", "ca.pub", "-revocations", "rev.bin"},
			want: with(func(c *dharma.UDPPeerConfig) {
				c.IdentityPath, c.CAPath, c.RevocationsPath = "c.id", "ca.pub", "rev.bin"
			}),
			wantOpt: clientOptions{r: "song", top: 10, logLevel: "warn"},
		},
		{name: "insert without -uri", cmd: "insert", args: []string{"-r", "song"}, wantErr: "insert needs -r and -uri"},
		{name: "tag without -t", cmd: "tag", args: []string{"-r", "song"}, wantErr: "tag needs -r and -t"},
		{name: "search without -t", cmd: "search", wantErr: "search needs -t"},
		{name: "resolve without -r", cmd: "resolve", wantErr: "resolve needs -r"},
		{
			name: "-identity without -ca", cmd: "resolve",
			args: []string{"-r", "song", "-identity", "c.id"}, wantErr: "-identity and -ca",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, opt, err := clientConfig(tc.cmd, tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("config:\n got %+v\nwant %+v", got, tc.want)
			}
			if !reflect.DeepEqual(opt, tc.wantOpt) {
				t.Errorf("options: got %+v, want %+v", opt, tc.wantOpt)
			}
		})
	}
}

// TestScrapeAssertions drives the scrape verb against a live peer's
// registry served the way serve -debug-addr serves it. -assert-rpc
// must fail while the peer has served nothing and pass once it has;
// -assert-min must fail one short of its minimum and pass at it; a
// malformed -assert-min pair is rejected.
func TestScrapeAssertions(t *testing.T) {
	ctx := context.Background()
	p, err := dharma.NewUDPPeer(ctx, dharma.UDPPeerConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(obs.Handler(p.Metrics(),
		func() any { return p.Stats() },
		func() any { return p.Node.RecentTraces() }))
	defer srv.Close()
	run := func(args ...string) (string, error) {
		var out strings.Builder
		err := scrape(ctx, append([]string{"-addr", strings.TrimPrefix(srv.URL, "http://")}, args...), &out)
		return out.String(), err
	}

	if _, err := run("-assert-rpc"); err == nil {
		t.Fatal("-assert-rpc passed on a peer that has served no RPC")
	}
	joiner, err := dharma.NewUDPPeer(ctx, dharma.UDPPeerConfig{
		Listen:    "127.0.0.1:0",
		Bootstrap: []string{p.Node.Self().Addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	out, err := run("-assert-rpc")
	if err != nil {
		t.Fatalf("-assert-rpc after a join: %v", err)
	}
	var served int
	_, line, _ := strings.Cut(out, "assert-rpc ok: ")
	if _, err := fmt.Sscanf(line, "%d", &served); err != nil || served == 0 {
		t.Fatalf("no served-RPC count in the output (%v):\n%s", err, out)
	}

	if _, err := run("-assert-min", fmt.Sprintf("dharma_rpc_serve_seconds=%d", served+1)); err == nil {
		t.Errorf("-assert-min passed one RPC above the %d served", served)
	}
	if out, err := run("-assert-min", fmt.Sprintf("dharma_rpc_serve_seconds=%d", served)); err != nil {
		t.Errorf("-assert-min at exactly the %d served: %v", served, err)
	} else if !strings.Contains(out, "assert-min ok: dharma_rpc_serve_seconds") {
		t.Errorf("passing -assert-min printed no ok line:\n%s", out)
	}
	for _, bad := range []string{"dharma_rpc_serve_seconds", "dharma_rpc_serve_seconds=many"} {
		if _, err := run("-assert-min", bad); err == nil || !strings.Contains(err.Error(), "bad -assert-min") {
			t.Errorf("-assert-min %q: err = %v, want it rejected as malformed", bad, err)
		}
	}
}
