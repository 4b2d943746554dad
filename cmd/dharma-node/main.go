// Command dharma-node runs a DHARMA participant over real UDP: a
// storage node that serves the overlay, or a short-lived client that
// inserts, tags, searches and resolves through a bootstrap node.
//
// Run a first node:
//
//	dharma-node serve -listen 127.0.0.1:9000
//
// Join more (any running node works as bootstrap):
//
//	dharma-node serve -listen 127.0.0.1:9001 -bootstrap 127.0.0.1:9000
//
// Use the index:
//
//	dharma-node insert  -bootstrap 127.0.0.1:9000 -r song -uri magnet:x -tags rock,60s
//	dharma-node tag     -bootstrap 127.0.0.1:9000 -r song -t beatles
//	dharma-node search  -bootstrap 127.0.0.1:9000 -t rock
//	dharma-node resolve -bootstrap 127.0.0.1:9000 -r song
//
// A serving node exposes a live ops endpoint when -debug-addr is set:
// Prometheus metrics under /metrics, a JSON stats snapshot under
// /debug/stats, recent lookup traces under /debug/traces, and the
// standard pprof profiles under /debug/pprof/. The scrape verb reads
// that endpoint back, human-readable, and with -assert-rpc,
// -assert-trace or -assert-min makes it a health check:
//
//	dharma-node scrape -addr 127.0.0.1:9600 -assert-rpc -assert-trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dharma"
	"dharma/internal/admission"
	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C (or SIGTERM) cancels this context; every operation below
	// runs under it, so an interrupt aborts in-flight overlay RPCs
	// instead of waiting out their retry timers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = serve(ctx, args)
	case "insert", "tag", "search", "resolve":
		err = client(ctx, cmd, args)
	case "scrape":
		err = scrape(ctx, args, os.Stdout)
	case "ca":
		err = caCmd(args)
	default:
		usage()
		os.Exit(2)
	}
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set already printed its usage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dharma-node:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dharma-node serve   -listen host:port [-bootstrap host:port] [-k n] [-alpha n]
                      [-data-dir path] [-fsync group|none]
                      [-queue-depth n] [-peer-rate r] [-debug-addr host:port]
                      [-trace-slow d] [-log-level l]
                      [-identity file -ca file [-revocations file] [-require-auth]]
  dharma-node insert  -bootstrap host:port -r name -uri uri [-tags a,b,c] [-timeout d]
  dharma-node tag     -bootstrap host:port -r name -t tag [-timeout d]
  dharma-node search  -bootstrap host:port -t tag [-top n] [-timeout d]
  dharma-node resolve -bootstrap host:port -r name [-timeout d]
  (clients accept -identity/-ca/-revocations too, for secured overlays)
  dharma-node scrape  [-addr host:port] [-timeout d] [-assert-rpc] [-assert-trace]
                      [-assert-min name=min,...] [-log-level l]
  dharma-node ca init   -dir path [-validity d]
  dharma-node ca issue  -dir path -name name -out file
  dharma-node ca revoke -dir path (-id hexid | -identity file)`)
}

// newLogger builds the process logger from the -log-level flag value.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// traceHook logs captured lookup traces through logger at WARN: every
// capture is a slow lookup, the "why was this navigate slow" evidence.
func traceHook(logger *slog.Logger) func(*kademlia.LookupTrace) {
	return func(tr *kademlia.LookupTrace) {
		logger.Warn("lookup trace",
			"trace-id", fmt.Sprintf("%016x", tr.TraceID),
			"target", tr.Target.Short(),
			"value", tr.Value,
			"wall", tr.Wall,
			"rounds", tr.Rounds,
			"tried", tr.Tried,
			"busy", tr.Busy,
			"found", tr.Found,
			"spans", len(tr.Spans))
	}
}

// securityFlags registers the Likir flags serve and the client verbs share.
func securityFlags(fs *flag.FlagSet, cfg *dharma.UDPPeerConfig) {
	fs.StringVar(&cfg.IdentityPath, "identity", "",
		"Likir identity file issued by `dharma-node ca issue` (with -ca: authenticated sessions, signed writes)")
	fs.StringVar(&cfg.CAPath, "ca", "", "CA public key file (ca.pub)")
	fs.StringVar(&cfg.RevocationsPath, "revocations", "",
		"signed revocation bundle (revocations.bin); serve re-reads it every maintenance tick")
}

// checkSecurity rejects a half-configured Likir layer by flag name,
// before anything is opened.
func checkSecurity(cfg dharma.UDPPeerConfig) error {
	if (cfg.IdentityPath == "") != (cfg.CAPath == "") {
		return errors.New("-identity and -ca must be set together")
	}
	return nil
}

// serveOptions is what `serve` needs beyond the peer itself.
type serveOptions struct {
	maintain  time.Duration
	debugAddr string
	logLevel  string
}

// serveConfig maps `serve` flags onto the peer configuration. It opens
// nothing: everything it returns is plain data.
func serveConfig(args []string) (dharma.UDPPeerConfig, serveOptions, error) {
	var cfg dharma.UDPPeerConfig
	var o serveOptions
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.StringVar(&cfg.Listen, "listen", "127.0.0.1:9000", "UDP address to bind")
	bootstrap := fs.String("bootstrap", "", "address of an existing node (empty = first node)")
	fs.IntVar(&cfg.Replication, "k", 20, "bucket size / replication factor")
	fs.IntVar(&cfg.Alpha, "alpha", 3, "lookup parallelism")
	fs.DurationVar(&o.maintain, "maintain", 10*time.Minute,
		"interval between maintenance rounds (dead-contact eviction + bucket refresh + anti-entropy); 0 disables")
	fs.StringVar(&cfg.DataDir, "data-dir", "",
		"directory for durable storage (WAL + snapshots + identity); restart resumes identity and blocks")
	fsync := fs.String("fsync", "group",
		"durability policy with -data-dir: group (one fsync per commit group) or none (survives kill, not power loss)")
	fs.IntVar(&cfg.QueueDepth, "queue-depth", admission.DefaultQueueDepth,
		"concurrent request handlers admitted before answering BUSY (negative = unlimited)")
	fs.Float64Var(&cfg.PerPeerRate, "peer-rate", 0,
		"admitted requests/sec per source peer before answering BUSY (0 = unlimited)")
	fs.StringVar(&o.debugAddr, "debug-addr", "",
		"HTTP address for the ops endpoint (/metrics, /debug/stats, /debug/traces, /debug/pprof); empty disables")
	fs.DurationVar(&cfg.TraceSlow, "trace-slow", 0,
		"capture and log every lookup slower than this (0 = default 250ms, negative = disabled)")
	fs.StringVar(&o.logLevel, "log-level", "info", "log verbosity: debug, info, warn or error")
	securityFlags(fs, &cfg)
	fs.BoolVar(&cfg.RequireAuth, "require-auth", false, "reject plain (session-less) requests with UNAUTHORIZED")
	fs.DurationVar(&cfg.ChaosDelay, "chaos-delay", 0, "artificially delay every inbound RPC handler (deadline-shed testing)")
	if err := fs.Parse(args); err != nil {
		return cfg, o, err
	}
	switch *fsync {
	case "group":
	case "none":
		cfg.NoFsync = true
	default:
		return cfg, o, fmt.Errorf("unknown -fsync mode %q (want group or none)", *fsync)
	}
	if *bootstrap != "" {
		cfg.Bootstrap = []string{*bootstrap}
	}
	return cfg, o, checkSecurity(cfg)
}

func serve(ctx context.Context, args []string) error {
	cfg, o, err := serveConfig(args)
	if err != nil {
		return err
	}
	logger, err := newLogger(o.logLevel)
	if err != nil {
		return err
	}
	cfg.OnTrace = traceHook(logger)

	p, err := dharma.NewUDPPeer(ctx, cfg)
	if err != nil {
		return err
	}
	node := p.Node
	if wal := node.LocalStore().WAL(); wal != nil {
		logger.Info(fmt.Sprintf("recovered %d blocks", node.LocalStore().Len()),
			"data-dir", cfg.DataDir, "recovery", wal.Recovery().String())
	}
	if id := node.Identity(); id != nil {
		logger.Info("Likir layer active",
			"identity", id.Name, "node-id", id.NodeID.Short(),
			"require-auth", cfg.RequireAuth, "revocations", cfg.RevocationsPath)
	}
	logger.Info(fmt.Sprintf("node %s serving", node.Self().ID.Short()),
		"addr", node.Self().Addr, "contacts", node.Table().Len())

	if o.debugAddr != "" {
		statsFn := func() any {
			return struct {
				Node     string `json:"node"`
				Addr     string `json:"addr"`
				Contacts int    `json:"contacts"`
				Blocks   int    `json:"blocks"`
				dharma.Stats
			}{node.Self().ID.Short(), node.Self().Addr, node.Table().Len(), node.LocalStore().Len(), p.Stats()}
		}
		ln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			p.Close() //nolint:errcheck // boot failed; the listen error is the one to report
			return fmt.Errorf("debug listen: %w", err)
		}
		debugSrv := &http.Server{Handler: obs.Handler(p.Metrics(), statsFn, func() any { return node.RecentTraces() })}
		go func() {
			if serr := debugSrv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
				logger.Error("debug endpoint failed", "err", serr)
			}
		}()
		logger.Info("ops endpoint serving", "debug-addr", ln.Addr().String())
		defer debugSrv.Close() //nolint:errcheck // process is exiting
	}

	// The facade starts no background work; this loop owns the peer's
	// maintenance cadence. The serve context bounds each round's RPCs
	// too: Ctrl-C mid-round aborts the sweep rather than letting it
	// finish behind the shutdown.
	var tick <-chan time.Time // nil (never fires) when maintenance is disabled
	if o.maintain > 0 {
		ticker := time.NewTicker(o.maintain)
		defer ticker.Stop()
		tick = ticker.C
	}
	for ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case <-tick:
			round, err := p.MaintainOnce(ctx)
			if err != nil {
				logger.Warn("revocation refresh failed; previous set stays in force", "err", err)
			}
			// This round's block decisions, then the running totals.
			c := node.Counters()
			logger.Info("maintenance: anti-entropy",
				"synced", round.Synced,
				"suppressed", round.Suppressed,
				"skipped", round.Skipped,
				"acks", round.Acks,
				"matches", c.DigestMatches.Load(),
				"delta-entries", c.DeltaEntries.Load(),
				"full-blocks", c.FullBlocks.Load(),
				"bytes-out", c.MaintBytesSent.Load(),
				"contacts", node.Table().Len())
		}
	}

	// Clean stop: flush and close the durable store (no-op in-memory).
	// A SIGKILL skips this path entirely — that is what the WAL's
	// torn-tail recovery is for.
	if err := p.Close(); err != nil {
		logger.Error("shutdown failed", "err", err)
	}
	logger.Info("stopping",
		"rpc-served", node.RPCServed(), "blocks", node.LocalStore().Len())
	return nil
}

// clientOptions is one client verb's arguments.
type clientOptions struct {
	r, t, uri string
	tags      []string
	top       int
	timeout   time.Duration
	logLevel  string
}

// clientConfig maps a client verb's flags onto the configuration of the
// short-lived peer that carries the operation out, and checks the verb
// has the arguments it needs — before anything is opened.
func clientConfig(cmd string, args []string) (dharma.UDPPeerConfig, clientOptions, error) {
	// A client is a full overlay member for the length of one operation:
	// the fleet's bucket size and lookup parallelism, an ephemeral port.
	cfg := dharma.UDPPeerConfig{
		Listen: "127.0.0.1:0",
		Config: dharma.Config{Replication: 20, Alpha: 3},
	}
	var o clientOptions
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	bootstrap := fs.String("bootstrap", "127.0.0.1:9000", "address of a running node")
	fs.StringVar(&o.r, "r", "", "resource name")
	fs.StringVar(&o.t, "t", "", "tag")
	fs.StringVar(&o.uri, "uri", "", "resource URI")
	tags := fs.String("tags", "", "comma-separated tag list")
	fs.IntVar(&o.top, "top", 10, "entries to display")
	mode := fs.String("mode", "approx", "maintenance mode: naive or approx")
	fs.IntVar(&cfg.K, "k", 5, "connection parameter (approx mode)")
	fs.DurationVar(&o.timeout, "timeout", 0,
		"overall deadline for the operation, bootstrap included (0 = none); on expiry in-flight RPCs are aborted and the command exits nonzero")
	fs.StringVar(&o.logLevel, "log-level", "warn", "log verbosity: debug, info, warn or error")
	securityFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return cfg, o, err
	}
	cfg.Bootstrap = []string{*bootstrap}
	if *mode == "naive" {
		cfg.Mode = dharma.Naive
	}
	if *tags != "" {
		o.tags = strings.Split(*tags, ",")
	}
	var need string
	switch {
	case cmd == "insert" && (o.r == "" || o.uri == ""):
		need = "-r and -uri"
	case cmd == "tag" && (o.r == "" || o.t == ""):
		need = "-r and -t"
	case cmd == "search" && o.t == "":
		need = "-t"
	case cmd == "resolve" && o.r == "":
		need = "-r"
	}
	if need != "" {
		return cfg, o, fmt.Errorf("%s needs %s", cmd, need)
	}
	return cfg, o, checkSecurity(cfg)
}

func client(ctx context.Context, cmd string, args []string) error {
	cfg, o, err := clientConfig(cmd, args)
	if err != nil {
		return err
	}
	logger, err := newLogger(o.logLevel)
	if err != nil {
		return err
	}
	cfg.OnTrace = traceHook(logger)
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	p, err := dharma.NewUDPPeer(ctx, cfg)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("deadline exceeded reaching bootstrap %s: %w", cfg.Bootstrap[0], err)
		}
		return err
	}
	defer p.Close() //nolint:errcheck // short-lived client

	switch cmd {
	case "insert":
		if err := p.InsertResource(ctx, o.r, o.uri, o.tags); err != nil {
			return err
		}
		fmt.Printf("inserted %s with %d tags\n", o.r, len(o.tags))

	case "tag":
		if err := p.Tag(ctx, o.r, o.t); err != nil {
			return err
		}
		fmt.Printf("tagged %s with %s\n", o.r, o.t)

	case "search":
		related, resources, err := p.SearchStep(ctx, o.t)
		if err != nil {
			return err
		}
		printTop(fmt.Sprintf("related tags of %q:", o.t), "sim", related, o.top)
		printTop(fmt.Sprintf("resources labeled %q:", o.t), "u", resources, o.top)

	case "resolve":
		uri, err := p.ResolveURI(ctx, o.r)
		if err != nil {
			return err
		}
		fmt.Printf("%s -> %s\n", o.r, uri)
	}
	return nil
}

// printTop lists the first top entries of a search result.
func printTop(title, unit string, list []dharma.Weighted, top int) {
	fmt.Println(title)
	if top >= 0 && top < len(list) {
		list = list[:top]
	}
	for _, w := range list {
		fmt.Printf("  %-24s %s=%d\n", w.Name, unit, w.Weight)
	}
}

// caCmd implements the certification-authority toolbox: `ca init`
// mints the authority key pair, `ca issue` hands a node operator an
// identity file, `ca revoke` adds a node to the signed revocation
// bundle the fleet re-reads on its maintenance ticks.
func caCmd(args []string) error {
	if len(args) < 1 {
		return errors.New("ca needs a subcommand: init, issue or revoke")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "init":
		fs := flag.NewFlagSet("ca init", flag.ExitOnError)
		dir := fs.String("dir", "", "CA state directory to create")
		validity := fs.Duration("validity", 30*24*time.Hour, "credential validity window")
		fs.Parse(rest) //nolint:errcheck // ExitOnError
		if *dir == "" {
			return errors.New("ca init needs -dir")
		}
		// Refuse to overwrite: a new key silently invalidates every
		// credential the old one issued.
		if _, err := os.Stat(filepath.Join(*dir, "ca.key")); err == nil {
			return fmt.Errorf("%s already holds a CA key", *dir)
		}
		a, err := likir.NewAuthority(nil, *validity, nil)
		if err != nil {
			return err
		}
		if err := a.SaveCA(*dir); err != nil {
			return err
		}
		fmt.Printf("CA initialised in %s\n  public key: %s\n  revocation bundle: %s\n",
			*dir, likir.PublicKeyPath(*dir), likir.BundlePath(*dir))

	case "issue":
		fs := flag.NewFlagSet("ca issue", flag.ExitOnError)
		dir := fs.String("dir", "", "CA state directory")
		name := fs.String("name", "", "human-readable identity name")
		out := fs.String("out", "", "identity file to write (credential + private key, 0600)")
		fs.Parse(rest) //nolint:errcheck // ExitOnError
		if *dir == "" || *name == "" || *out == "" {
			return errors.New("ca issue needs -dir, -name and -out")
		}
		a, err := likir.LoadCA(*dir)
		if err != nil {
			return err
		}
		id, err := a.Issue(nil, *name)
		if err != nil {
			return err
		}
		if err := id.Save(*out); err != nil {
			return err
		}
		fmt.Printf("issued %q -> %s\n  node id: %s\n", *name, *out, id.NodeID)

	case "revoke":
		fs := flag.NewFlagSet("ca revoke", flag.ExitOnError)
		dir := fs.String("dir", "", "CA state directory")
		idStr := fs.String("id", "", "node identifier to revoke (hex)")
		idFile := fs.String("identity", "", "identity file whose node to revoke")
		fs.Parse(rest) //nolint:errcheck // ExitOnError
		if *dir == "" || (*idStr == "") == (*idFile == "") {
			return errors.New("ca revoke needs -dir and exactly one of -id or -identity")
		}
		var target kadid.ID
		if *idFile != "" {
			ident, err := likir.LoadIdentity(*idFile)
			if err != nil {
				return err
			}
			target = ident.NodeID
		} else {
			var err error
			if target, err = kadid.Parse(*idStr); err != nil {
				return err
			}
		}
		a, err := likir.LoadCA(*dir)
		if err != nil {
			return err
		}
		a.Revoke(target)
		// SaveCA rewrites the ledger and re-signs the bundle; running
		// nodes pick the new bundle up on their next maintenance tick.
		if err := a.SaveCA(*dir); err != nil {
			return err
		}
		fmt.Printf("revoked %s\n  updated bundle: %s\n", target, likir.BundlePath(*dir))

	default:
		return fmt.Errorf("unknown ca subcommand %q (want init, issue or revoke)", sub)
	}
	return nil
}
