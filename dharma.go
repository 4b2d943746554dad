// Package dharma is a Go implementation of DHARMA — a DHT-based
// Approach for Resource Mapping through Approximation (Aiello,
// Milanesio, Ruffo, Schifanella; IPPS 2010) — together with every
// substrate the paper builds on: a Kademlia overlay with a Likir-style
// identity layer, the folksonomy model, the approximated graph
// maintenance protocol, and faceted tag search.
//
// The package is a thin facade over the implementation packages:
//
//	internal/core        the DHARMA engine (blocks, primitives, approximations)
//	internal/kademlia    the overlay (routing, lookups, replication)
//	internal/likir       identity-bound node IDs and signed content
//	internal/search      faceted navigation
//	internal/dataset     synthetic Last.fm-like workloads
//	internal/exp         the paper's tables and figures
//
// # Quick start
//
//	ctx := context.Background()
//	sys, err := dharma.NewSystem(dharma.Config{Nodes: 16, K: 5})
//	if err != nil { ... }
//	defer sys.Shutdown()
//	p := sys.Peer(0)
//	p.InsertResource(ctx, "norwegian-wood", "magnet:?xt=...", []string{"rock", "60s", "beatles"})
//	p.Tag(ctx, "norwegian-wood", "folk-rock")
//	res, err := p.Navigate(ctx, "rock", dharma.First, dharma.NavOptions{})
//	fmt.Println(res.Path, res.FinalResources)
//
// # Contexts
//
// Every operation takes a context.Context as its first argument, and
// the context is honored through the whole stack: cancelling it (or
// letting its deadline expire) aborts the in-flight overlay RPC waiters
// — not just the next hop — so a client stuck behind a slow or dead
// replica gets its control back immediately instead of waiting out
// internal retry timers. DHARMA's primitives are multi-hop operations
// (a Tag is 4+k lookups, a Navigate an unbounded walk), which makes
// per-call latency bounds the difference between a production overlay
// and a science project.
//
// A context error means "outcome unknown", not "not written": an
// abandoned write may still have landed on some replicas, exactly like
// a write whose acknowledgement was lost on the wire. Block updates are
// commutative token appends, so retrying is always safe.
//
// A per-call bound is a derived context:
//
//	// bound one tag operation to 50ms
//	tctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
//	defer cancel()
//	err := p.Tag(tctx, "norwegian-wood", "psychedelic")
//
// A System and its Peers are safe for concurrent use: any number of
// goroutines may insert, tag and navigate against the same deployment
// simultaneously (block updates are commutative token appends, so
// concurrent tagging is also semantically race-free — §IV-B).
//
// See the examples/ directory for complete programs.
package dharma

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"os"
	"time"

	"dharma/internal/admission"
	"dharma/internal/core"
	"dharma/internal/dht"
	"dharma/internal/folksonomy"
	"dharma/internal/kademlia"
	"dharma/internal/kadid"
	"dharma/internal/likir"
	"dharma/internal/obs"
	"dharma/internal/persist"
	"dharma/internal/search"
	"dharma/internal/session"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// Mode selects between the exact maintenance protocol and the paper's
// approximated one.
type Mode = core.Mode

// Engine modes.
const (
	// Approximated applies Approximations A and B: a tagging operation
	// costs 4+k lookups and updates are race-free token appends. It is
	// the zero value.
	Approximated = core.Approximated
	// Naive implements the §III model verbatim: a tagging operation
	// costs 4+|Tags(r)| overlay lookups.
	Naive = core.Naive
)

// Strategy selects the next tag during faceted navigation.
type Strategy = search.Strategy

// Navigation strategies (§V-C).
const (
	First  = search.First
	Last   = search.Last
	Random = search.Random
)

// NavOptions re-exports the navigator's options.
type NavOptions = search.Options

// NavResult re-exports the navigation result.
type NavResult = search.Result

// Weighted re-exports the (name, weight) pair search steps and tag
// listings are stated in.
type Weighted = folksonomy.Weighted

// Config describes a DHARMA deployment simulated in-process.
type Config struct {
	// Nodes is the overlay size (default 16).
	Nodes int
	// Mode selects the maintenance protocol: Approximated (the zero
	// value, the paper's contribution) or Naive.
	Mode Mode
	// K is the connection parameter of Approximation A (default 5).
	K int
	// TopN caps entries returned per block read (default 100, the
	// paper's display bound; -1 disables filtering).
	TopN int
	// Replication is the overlay's bucket size and replica count
	// (default 8 for in-process clusters).
	Replication int
	// Alpha is the lookup parallelism (default 3).
	Alpha int
	// WithIdentity enables the Likir layer: a certification authority
	// issues every node an identity; peers reject uncertified traffic
	// and URI entries are signed.
	WithIdentity bool
	// WriteQuorum is the minimum replica acknowledgements a write needs
	// to succeed (default 1). An acknowledged write survives crashes of
	// up to WriteQuorum-1 of its ackers even before any repair runs, so
	// churn deployments want at least 2.
	WriteQuorum int
	// DataDir, when set, makes every node's block store durable: writes
	// are logged (write-ahead, group-commit fsync) under
	// DataDir/<node-address> before they are acknowledged, Cluster's
	// Crash models a process kill, and Revive recovers the node's
	// blocks from disk instead of reusing the retained in-memory store.
	// A System rebuilt over the same DataDir (and Seed) serves every
	// previously acknowledged write.
	DataDir string
	// NoFsync trades power-loss durability for speed in a durable
	// deployment: acknowledged writes are handed to the OS (surviving a
	// process kill) but not fsynced. Ignored when DataDir is empty.
	NoFsync bool
	// Seed makes the deployment reproducible (node IDs, approximation
	// subsets).
	Seed int64
	// DropRate injects network loss in [0,1).
	DropRate float64
	// MTU bounds simulated packet payloads (0 = unlimited).
	MTU int
	// QueueDepth caps how many RPCs each node handles concurrently;
	// excess requests are rejected with a typed busy answer that clients
	// back off from (≤ 0 = the admission layer's bounded default; there
	// is no unbounded setting). This is the overload-protection knob: it
	// bounds handler goroutines per node no matter how many callers pile
	// up.
	QueueDepth int
	// PerPeerRate limits how many requests per second a node accepts
	// from any single peer (0 = unlimited). Bursts up to twice the rate
	// are tolerated before rejections start.
	PerPeerRate float64
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.Replication == 0 {
		c.Replication = 8
	}
	if c.Alpha == 0 {
		c.Alpha = 3
	}
	return c
}

// System is an in-process DHARMA deployment: an overlay cluster with
// one tagging engine per node.
type System struct {
	cluster   *kademlia.Cluster
	peers     []*Peer
	authority *likir.Authority
}

// Peer is one participant: a DHARMA engine bound to an overlay node.
// Every operation takes a context as its first argument and accepts
// per-operation Options; the context bounds the whole multi-hop
// operation, down to the individual RPC waiters.
type Peer struct {
	engine *core.Engine
	Node   *kademlia.Node
	store  *dht.Overlay
	// Security layer state; nil/empty on open-overlay and simulated
	// peers. revSet is shared with the node config's Revoked hook and
	// the session manager, so a Refresh propagates everywhere at once.
	sessions *session.Manager
	revSet   *likir.RevocationSet
	revPath  string
	caPub    ed25519.PublicKey
}

// Stats is a point-in-time snapshot of one peer's accounting,
// consolidated across the engine's block store counters, the overlay
// node's counters (Node.Counters) and its endpoint's admission gate.
// It is the typed view for Go callers: every field reads the atomic
// behind a /metrics series of a NewUDPPeer peer (Peer.Metrics) —
// Appends and Gets are dharma_block_appends_total and
// dharma_block_gets_total, and Lookups is their sum.
type Stats struct {
	// Appends and Gets are the block operations this peer issued — the
	// paper's lookup unit; Lookups is their sum (the Table I cost).
	Appends, Gets, Lookups int64
	// NodeLookups counts iterative lookup procedures (walks) the
	// overlay node ran: one per read, per maintenance lookup and per
	// store whose replica set was not cached. A store to a cached set
	// walks not at all; dharma_replica_set_hits_total counts those.
	NodeLookups int64
	// RPCServed counts inbound RPC requests this peer answered — the
	// per-node load count, on either transport.
	RPCServed int64
	// BusyRejected counts requests this peer refused at admission
	// (work queue full or per-peer rate exceeded). A nonzero value under
	// load is the overload protection working, not a fault.
	BusyRejected int64
	// Admitted counts inbound requests that passed the admission gate;
	// InFlight is how many of them are currently in their handler.
	Admitted, InFlight int64
	// MaintBytesSent and MaintBytesRecv are the wire bytes of
	// maintenance traffic (anti-entropy summary probes and replica
	// deltas) this peer originated and got back — the cost the
	// digest-first protocol exists to minimise.
	MaintBytesSent, MaintBytesRecv int64
	// DigestMatches counts summary probes answered by an equal digest:
	// replica agreement proven without moving block data.
	DigestMatches int64
	// SuppressedRounds counts per-block anti-entropy rounds skipped
	// because the block was written since the previous round (write-time
	// replication already spread the update).
	SuppressedRounds int64
	// DeltaEntries counts the entries shipped as sync deltas; compare
	// against full block sizes to see the bandwidth saving.
	DeltaEntries int64
}

// Stats returns the peer's consolidated accounting snapshot. The fields
// are read from independent atomic counters — the snapshot is
// internally consistent only on a quiescent peer.
func (p *Peer) Stats() Stats {
	c := p.Node.Counters()
	st := Stats{
		Appends:          p.store.Appends(),
		Gets:             p.store.Gets(),
		Lookups:          p.store.Lookups(),
		NodeLookups:      c.Lookups.Load(),
		RPCServed:        c.RPCServed.Load(),
		MaintBytesSent:   c.MaintBytesSent.Load(),
		MaintBytesRecv:   c.MaintBytesRecv.Load(),
		DigestMatches:    c.DigestMatches.Load(),
		SuppressedRounds: c.Suppressed.Load(),
		DeltaEntries:     c.DeltaEntries.Load(),
	}
	// Both transports report their endpoint's admission controller.
	if tr, ok := p.Node.Transport().(interface{ AdmissionStats() admission.Stats }); ok {
		adm := tr.AdmissionStats()
		st.Admitted = adm.Admitted
		st.InFlight = adm.InFlight
		st.BusyRejected = adm.Rejected()
	}
	return st
}

// Metrics returns the peer's metrics registry, ready for obs.Handler:
// the node's counters on every peer, plus the timing histograms and the
// transport, session and write-ahead-log instruments on a peer built
// with NewUDPPeer.
func (p *Peer) Metrics() *obs.Registry { return p.Node.Metrics() }

// Lookups returns the number of block operations (the paper's lookup
// unit) this peer has issued — shorthand for Stats().Lookups.
func (p *Peer) Lookups() int64 { return p.store.Lookups() }

// InsertResource publishes a new resource r with URI uri and the given
// tag set; 2+2m lookups for m distinct tags (Table I).
func (p *Peer) InsertResource(ctx context.Context, r, uri string, tags []string) error {
	return p.engine.InsertResource(ctx, r, uri, tags...)
}

// Tag adds tag t to the existing resource r; 4+k lookups in
// Approximated mode (Table I).
func (p *Peer) Tag(ctx context.Context, r, t string) error {
	return p.engine.Tag(ctx, r, t)
}

// SearchStep retrieves one navigation step for tag t: related tags by
// descending similarity and resources by descending annotation count,
// both capped index-side (Config.TopN); 2 lookups.
func (p *Peer) SearchStep(ctx context.Context, t string) (related, resources []Weighted, err error) {
	return p.engine.SearchStep(ctx, t)
}

// ResolveURI fetches the URI published for resource r; one lookup.
func (p *Peer) ResolveURI(ctx context.Context, r string) (string, error) {
	return p.engine.ResolveURI(ctx, r)
}

// TagsOf fetches Tags(r) with weights, sorted by descending weight;
// one lookup.
func (p *Peer) TagsOf(ctx context.Context, r string) ([]Weighted, error) {
	return p.engine.TagsOf(ctx, r)
}

// Neighbors fetches the full (unfiltered) FG adjacency of tag t; one
// lookup.
func (p *Peer) Neighbors(ctx context.Context, t string) ([]Weighted, error) {
	return p.engine.Neighbors(ctx, t)
}

// Navigate runs a faceted search over the live overlay starting from
// tag start. ctx bounds the whole walk: cancellation is observed
// between steps and aborts the in-flight lookup RPCs, and the walk
// returns the partial Result together with the context error.
// A non-context lookup failure swallowed mid-walk is also reported as
// the error, alongside the (still useful) partial result.
func (p *Peer) Navigate(ctx context.Context, start string, strat Strategy, opt NavOptions) (NavResult, error) {
	v := search.NewEngineView(ctx, p.engine)
	res, err := search.Run(ctx, v, start, strat, opt)
	if err == nil {
		err = v.Err()
	}
	return res, err
}

// NavigateFromResource runs a "more like this" search: the walk enters
// the folksonomy through one of resource r's own tags (chosen by the
// strategy) and refines from there. Context semantics match Navigate.
func (p *Peer) NavigateFromResource(ctx context.Context, r string, strat Strategy, opt NavOptions) (NavResult, error) {
	v := search.NewEngineView(ctx, p.engine)
	res, err := search.RunFromResource(ctx, v, v, r, strat, opt)
	if err == nil {
		err = v.Err()
	}
	return res, err
}

// newPeer is the one place a participant is assembled on an attached
// node: overlay store, then engine. On error the caller still owns the
// node.
func newPeer(node *kademlia.Node, cfg Config, seed int64) (*Peer, error) {
	p := &Peer{
		Node:  node,
		store: dht.NewOverlay(node, node.Identity()), // signs URI entries on a Likir overlay
	}
	var err error
	p.engine, err = core.NewEngine(p.store, core.Config{
		Mode: cfg.Mode, K: cfg.K, TopN: cfg.TopN, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// NewSystem boots an overlay of cfg.Nodes nodes and attaches a DHARMA
// engine to each. On any failure after the overlay booted, the cluster
// is shut down before the error is returned — a failed NewSystem never
// leaks live endpoints or open write-ahead logs under cfg.DataDir.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()

	var authority *likir.Authority
	if cfg.WithIdentity {
		var err error
		authority, err = likir.NewAuthority(nil, 24*time.Hour, nil)
		if err != nil {
			return nil, fmt.Errorf("dharma: create authority: %w", err)
		}
	}

	var popts persist.Options
	if cfg.NoFsync {
		popts.Sync = persist.SyncNone
	}
	cluster, err := kademlia.NewCluster(kademlia.ClusterConfig{
		N: cfg.Nodes,
		Node: kademlia.Config{
			K: cfg.Replication, Alpha: cfg.Alpha, MinStoreAcks: cfg.WriteQuorum,
		},
		Net: simnet.Config{
			DropRate:  cfg.DropRate,
			MTU:       cfg.MTU,
			Seed:      cfg.Seed,
			Admission: admission.Config{QueueDepth: cfg.QueueDepth, PerPeerRate: cfg.PerPeerRate},
		},
		Seed:      cfg.Seed,
		Authority: authority,
		DataDir:   cfg.DataDir,
		Persist:   popts,
	})
	if err != nil {
		return nil, fmt.Errorf("dharma: boot overlay: %w", err)
	}

	sys := &System{cluster: cluster, authority: authority}
	for i, node := range cluster.Nodes {
		p, err := newPeer(node, cfg, cfg.Seed+int64(i))
		if err != nil {
			// The cluster is already live: endpoints attached, durable
			// WALs open. Tear it down, or a failed boot leaks them all.
			cluster.Shutdown()
			return nil, fmt.Errorf("dharma: engine %d: %w", i, err)
		}
		sys.peers = append(sys.peers, p)
	}
	return sys, nil
}

// Peer returns the i-th participant.
func (s *System) Peer(i int) *Peer { return s.peers[i] }

// Peers returns all participants.
func (s *System) Peers() []*Peer { return s.peers }

// Size returns the overlay size.
func (s *System) Size() int { return len(s.peers) }

// Network exposes the simulated network for fault injection and
// traffic accounting.
func (s *System) Network() *simnet.Network { return s.cluster.Net }

// Cluster exposes the overlay cluster for churn operations (RemoveNode,
// Crash, Revive) and membership inspection. Peers are bound to the
// nodes the System was built with; drive load only through peers whose
// nodes churn does not touch.
func (s *System) Cluster() *kademlia.Cluster { return s.cluster }

// SetDown crashes (or revives) the i-th overlay member: its endpoint
// stops answering until revived. Members are indexed as in
// Cluster().Nodes — the i-th peer's node for i < Size(), then nodes
// joined with Cluster().AddNode in join order (RemoveNode and Crash
// shift the indices down).
func (s *System) SetDown(i int, down bool) {
	s.cluster.Net.SetDown(simnet.Addr(s.cluster.NodeAt(i).Self().Addr), down)
}

// Shutdown cleanly stops every member: a durable deployment flushes and
// closes its write-ahead logs, so a later NewSystem over the same
// DataDir recovers the full state. A no-op for in-memory systems.
func (s *System) Shutdown() {
	s.cluster.Shutdown()
}

// UDPPeerConfig describes one real-UDP participant: a node that binds a
// socket and joins (or founds) a deployed overlay, with a DHARMA engine
// on top — the facade's path from simulation to deployment.
type UDPPeerConfig struct {
	// Config supplies the engine and overlay knobs (Mode, K, TopN,
	// Replication, Alpha, WriteQuorum, DataDir, NoFsync,
	// QueueDepth, PerPeerRate, Seed). Simulation-only
	// fields — Nodes, DropRate, MTU, WithIdentity — are ignored: there
	// is no simulated fault model over a real socket, and the Likir
	// layer needs an in-process authority.
	Config
	// Listen is the UDP bind address (e.g. "127.0.0.1:0").
	Listen string
	// Bootstrap lists addresses of running nodes to join through
	// (empty = this peer founds a new overlay).
	Bootstrap []string
	// Timeout bounds each overlay RPC (0 = the transport default).
	Timeout time.Duration

	// IdentityPath and CAPath enable the Likir security layer on a
	// deployed peer: IdentityPath is an identity file issued by
	// `dharma-node ca issue`, CAPath the authority's public key file
	// (ca.pub). Set together or not at all. With them set the peer's
	// overlay ID is the credential's node ID, outbound RPCs carry the
	// credential, every datagram travels inside an authenticated
	// session, and URI entries are signed.
	IdentityPath string
	CAPath       string
	// RevocationsPath, when set, points at the authority's signed
	// revocation bundle (revocations.bin); the peer refuses revoked
	// peers and MaintainOnce re-reads the file live.
	RevocationsPath string
	// RequireAuth rejects plain (session-less) inbound requests with
	// KindUnauthorized. Leave false during a rolling upgrade; set true
	// once the fleet speaks sessions.
	RequireAuth bool
	// ChaosDelay artificially delays every inbound RPC handler — a
	// test knob for observing deadline-shed behaviour under load.
	ChaosDelay time.Duration

	// TraceSlow captures every lookup slower than this (0 = default
	// 250ms, negative = disabled). Captures are kept on Node.RecentTraces
	// and handed to OnTrace, when set, as they complete.
	TraceSlow time.Duration
	OnTrace   func(*kademlia.LookupTrace)
}

// NewUDPPeer boots one real-UDP participant. The returned Peer speaks
// the same API as a simulated one; callers own its lifecycle and must
// Close it. ctx bounds the join handshake only. A failed boot releases
// everything it opened (socket, read loop, write-ahead log). No
// background work is started: the owner calls MaintainOnce. Every
// layer — node timing, store, write-ahead log, transport, sessions — is
// instrumented on the node's registry, which Peer.Metrics returns.
func NewUDPPeer(ctx context.Context, ucfg UDPPeerConfig) (_ *Peer, err error) {
	cfg := ucfg.Config.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	id := kadid.Random(rand.New(rand.NewSource(seed)))

	ncfg := kademlia.Config{
		K: cfg.Replication, Alpha: cfg.Alpha, MinStoreAcks: cfg.WriteQuorum,
		ChaosDelay: ucfg.ChaosDelay,
		TraceSlow:  ucfg.TraceSlow, OnTrace: ucfg.OnTrace,
	}

	var (
		ident    *likir.Identity
		caPub    ed25519.PublicKey
		revSet   *likir.RevocationSet
		sessions *session.Manager
	)
	if ucfg.IdentityPath != "" || ucfg.CAPath != "" {
		if ucfg.IdentityPath == "" || ucfg.CAPath == "" {
			return nil, fmt.Errorf("dharma: IdentityPath and CAPath must be set together")
		}
		var err error
		if ident, err = likir.LoadIdentity(ucfg.IdentityPath); err != nil {
			return nil, fmt.Errorf("dharma: %w", err)
		}
		if caPub, err = likir.LoadPublicKey(ucfg.CAPath); err != nil {
			return nil, fmt.Errorf("dharma: %w", err)
		}
		if err := likir.VerifyCredential(caPub, &ident.Credential, nil); err != nil {
			return nil, fmt.Errorf("dharma: identity %s not issued by CA %s: %w",
				ucfg.IdentityPath, ucfg.CAPath, err)
		}
		ncfg.Identity, ncfg.CAPub = ident, caPub
		if ucfg.RevocationsPath != "" {
			bundle, err := os.ReadFile(ucfg.RevocationsPath)
			if err != nil {
				return nil, fmt.Errorf("dharma: %w", err)
			}
			if revSet, err = likir.NewRevocationSet(caPub, bundle); err != nil {
				return nil, fmt.Errorf("dharma: %s: %w", ucfg.RevocationsPath, err)
			}
			ncfg.Revoked = revSet.Contains
		}
		if sessions, err = session.NewManager(session.Config{
			Identity: ident, CAPub: caPub, Revoked: ncfg.Revoked,
		}); err != nil {
			return nil, fmt.Errorf("dharma: %w", err)
		}
		id = ident.NodeID // Likir: the credential fixes the overlay ID
	}

	var popts persist.Options
	if cfg.NoFsync {
		popts.Sync = persist.SyncNone
	}
	if cfg.DataDir != "" {
		// Without a credential the stored IDENTITY file pins the overlay
		// ID across restarts; with one, the credential already does.
		if ident == nil {
			var err error
			if id, err = persist.LoadOrCreateIdentity(cfg.DataDir, id); err != nil {
				return nil, fmt.Errorf("dharma: %w", err)
			}
		}
		store, _, err := kademlia.OpenDurableStore(cfg.DataDir, popts)
		if err != nil {
			return nil, fmt.Errorf("dharma: %w", err)
		}
		ncfg.Store = store
	}
	node := kademlia.NewNode(id, ncfg)
	// The node owns the open WAL (and soon the socket): one cleanup
	// covers every failure from here on.
	defer func() {
		if err != nil {
			node.Shutdown() //nolint:errcheck // boot failed; nothing to flush
		}
	}()
	// Instrument before the socket opens and before dialing out, so the
	// join handshake already lands in the histograms.
	node.Instrument()
	if wal := node.LocalStore().WAL(); wal != nil {
		wal.Instrument(node.Metrics())
	}
	tr, err := wire.ListenUDP(ucfg.Listen, node, wire.UDPOptions{
		Timeout:     ucfg.Timeout,
		Admission:   admission.Config{QueueDepth: cfg.QueueDepth, PerPeerRate: cfg.PerPeerRate},
		Sessions:    sessions,
		RequireAuth: ucfg.RequireAuth,
	})
	if err != nil {
		return nil, fmt.Errorf("dharma: %w", err)
	}
	tr.Instrument(node.Metrics())
	node.Attach(tr)
	p, err := newPeer(node, cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("dharma: engine: %w", err)
	}
	p.sessions, p.revSet, p.revPath, p.caPub = sessions, revSet, ucfg.RevocationsPath, caPub

	var seeds []wire.Contact
	for _, b := range ucfg.Bootstrap {
		contact, err := node.Discover(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("dharma: discover %s: %w", b, err)
		}
		seeds = append(seeds, contact)
	}
	if len(seeds) > 0 {
		if err := node.Bootstrap(ctx, seeds); err != nil {
			return nil, fmt.Errorf("dharma: bootstrap: %w", err)
		}
	}
	return p, nil
}

// MaintainOnce runs one maintenance round: the revocation bundle is
// re-read and sessions of newly revoked peers are torn down, so the
// round never syncs with them; then kademlia.Node.MaintainOnce evicts
// dead contacts, refreshes a rotating sample of buckets and reconciles
// blocks with their replica sets, and its report is returned. ctx
// bounds the round's RPCs. The facade never calls it: the peer's owner
// sets the cadence. The error is the bundle failing to load — the
// previous set stays in force and the round has still run.
func (p *Peer) MaintainOnce(ctx context.Context) (kademlia.MaintenanceRound, error) {
	err := p.refreshRevocations()
	return p.Node.MaintainOnce(ctx), err
}

// refreshRevocations re-reads the revocation bundle and drops sessions
// of peers it newly revokes; a no-op on a peer built without
// RevocationsPath.
func (p *Peer) refreshRevocations() error {
	if p.revSet == nil {
		return nil
	}
	bundle, err := os.ReadFile(p.revPath)
	if err != nil {
		return fmt.Errorf("dharma: %w", err)
	}
	if err := p.revSet.Refresh(p.caPub, bundle); err != nil {
		return fmt.Errorf("dharma: %s: %w", p.revPath, err)
	}
	p.sessions.DropRevoked()
	return nil
}

// Close stops a self-owned peer (one built with NewUDPPeer): the node
// shuts down, closing its transport and flushing its write-ahead log.
// Peers belonging to a System are closed by System.Shutdown instead.
func (p *Peer) Close() error {
	return p.Node.Shutdown()
}

// NewLocalEngine creates a DHARMA engine over an in-process block store
// with the same semantics as the overlay — the embedding mode for
// applications that want the tagging model without networking.
func NewLocalEngine(cfg Config) (*core.Engine, *dht.Local, error) {
	cfg = cfg.withDefaults()
	store := dht.NewLocal()
	engine, err := core.NewEngine(store, core.Config{
		Mode: cfg.Mode, K: cfg.K, TopN: cfg.TopN, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	return engine, store, nil
}
