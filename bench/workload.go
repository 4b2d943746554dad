package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"

	"dharma"
	"dharma/internal/core"
	"dharma/internal/dht"
	"dharma/internal/kademlia"
	"dharma/internal/likir"
	"dharma/internal/search"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// Deployment constants shared by the overlay workloads.
const (
	simNodes      = 256
	udpPeers      = 8
	clientPeers   = 8 // the one client rotates over this many peers
	connectionK   = 5 // Approximation A's k
	hotBlocks     = 4 // sim-browse: t̄ blocks prefilled…
	hotBlockArcs  = 20000
	verifySamples = 200
)

// workload is one set of inputs. opsPerSec sizes the generated op list
// (generously: the list wraps around if a run outlasts it); chunkOps is
// a fraction of a second of ops, a multiple of mixBlock.
type workload struct {
	name      string
	why       string
	mix       weights // insert/tag/navigate/search
	opsPerSec int
	chunkOps  int
	// renew replays the op list from its start on a freshly set-up system
	// for every chunk. The in-process engine runs half a million ops in a
	// run, and a store that has taken that many grows, so that the last
	// second measured 2.5 times slower than the first; a chunk that
	// always starts from the seeded state measures the same work every
	// time. (The overlay workloads run a twentieth of the ops and stay
	// level.)
	renew   bool
	overlay bool // ops cross an overlay: routing table, codec, admission
	secured bool // sessions, signed entries and a WAL are on the path
	boot    func(newDir scratchDirs, tr *tracer) (*system, error)
}

var workloads = []workload{
	{
		name:      "sim-tag",
		why:       "write path on a 256-node simnet overlay: every block op is an iterative lookup plus a k-replica STORE, so kademlia lookup and RPC handling do the work",
		mix:       weights{5, 75, 10, 10},
		opsPerSec: 3000,
		chunkOps:  400,
		overlay:   true,
		boot:      func(_ scratchDirs, tr *tracer) (*system, error) { return bootSim(tr, false) },
	},
	{
		name:      "sim-browse",
		why:       "read path on the same overlay with four 20,000-arc hot blocks: FindValue stops early, top-N filtering and large replies; a lookup change that helps writes and hurts reads shows here",
		mix:       weights{5, 15, 60, 20},
		opsPerSec: 5000,
		chunkOps:  800,
		overlay:   true,
		boot:      func(_ scratchDirs, tr *tracer) (*system, error) { return bootSim(tr, true) },
	},
	{
		name:     "local-mixed",
		why:      "bypass control on the in-process engine: core, search and kademlia.Store do all the work, so a lookup, wire or transport change must not move it",
		mix:      weights{15, 45, 25, 15},
		chunkOps: 10000,
		renew:    true,
		boot:     bootLocal,
	},
	{
		name:      "udp-durable",
		why:       "deployed configuration: 8 UDP peers on loopback with authenticated sessions, signed entries and a group-fsync WAL, so wire, session, likir and persist do the work",
		mix:       weights{15, 45, 25, 15},
		opsPerSec: 500,
		chunkOps:  120,
		overlay:   true,
		secured:   true,
		boot:      bootUDP,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deploymentSeed fixes node identifiers, keys and the engines' sampling
// streams. The deployment is part of the benchmark's definition, like
// its size; a run's -seed varies the op list only.
const deploymentSeed = 1

// scratchDirs hands a boot a fresh scratch directory inside the
// checkout each time it is called.
type scratchDirs func() (string, error)

// client is the set of calls the benchmark issues, over either the
// facade (dharma.Peer) or a bare engine.
type client interface {
	insert(ctx context.Context, r, uri string, tags []string) error
	tag(ctx context.Context, r, t string) error
	navigate(ctx context.Context, t string, opt dharma.NavOptions) (steps int, err error)
	search(ctx context.Context, t string) error
	resolveURI(ctx context.Context, r string) (string, error)
	tagsOf(ctx context.Context, r string) ([]dharma.Weighted, error)
}

type peerClient struct{ p *dharma.Peer }

func (c peerClient) insert(ctx context.Context, r, uri string, tags []string) error {
	return c.p.InsertResource(ctx, r, uri, tags)
}
func (c peerClient) tag(ctx context.Context, r, t string) error { return c.p.Tag(ctx, r, t) }
func (c peerClient) navigate(ctx context.Context, t string, opt dharma.NavOptions) (int, error) {
	res, err := c.p.Navigate(ctx, t, dharma.Random, opt)
	return res.Steps(), err
}
func (c peerClient) search(ctx context.Context, t string) error {
	_, _, err := c.p.SearchStep(ctx, t)
	return err
}
func (c peerClient) resolveURI(ctx context.Context, r string) (string, error) {
	return c.p.ResolveURI(ctx, r)
}
func (c peerClient) tagsOf(ctx context.Context, r string) ([]dharma.Weighted, error) {
	return c.p.TagsOf(ctx, r)
}

// engineClient drives a bare engine the way Peer's methods do. It is
// the client of local-mixed (NewLocalEngine returns no Peer) and of
// every traced run (the engine is rebuilt over a traced store).
type engineClient struct{ e *core.Engine }

func (c engineClient) insert(ctx context.Context, r, uri string, tags []string) error {
	return c.e.InsertResource(ctx, r, uri, tags...)
}
func (c engineClient) tag(ctx context.Context, r, t string) error { return c.e.Tag(ctx, r, t) }
func (c engineClient) navigate(ctx context.Context, t string, opt dharma.NavOptions) (int, error) {
	v := search.NewEngineView(ctx, c.e)
	res, err := search.Run(ctx, v, t, search.Random, opt)
	if err == nil {
		err = v.Err()
	}
	return res.Steps(), err
}
func (c engineClient) search(ctx context.Context, t string) error {
	_, _, err := c.e.SearchStep(ctx, t)
	return err
}
func (c engineClient) resolveURI(ctx context.Context, r string) (string, error) {
	return c.e.ResolveURI(ctx, r)
}
func (c engineClient) tagsOf(ctx context.Context, r string) ([]dharma.Weighted, error) {
	return c.e.TagsOf(ctx, r)
}

// system is a booted deployment as the run loop sees it.
type system struct {
	clients  []client // op i is issued through clients[i % len]
	verifier client   // reads back through a peer no op was issued on
	// nodes are all overlay members (empty for local-mixed); hot-node and
	// RPC accounting reads their served counters.
	nodes []*kademlia.Node
	// blockOps reports the block operations the clients have issued so
	// far — the paper's Table I unit.
	blockOps func() int64
	// busyRejected reports requests refused at admission, deployment-wide.
	busyRejected func() int64
	dataDir      string // udp-durable: root of the peers' data dirs
	close        func()
}

func engineConfig(seed int64) core.Config {
	return core.Config{Mode: core.Approximated, K: connectionK, Seed: seed}
}

func bootSim(tr *tracer, prefill bool) (*system, error) {
	sys, err := dharma.NewSystem(dharma.Config{
		Nodes: simNodes, Mode: dharma.Approximated, K: connectionK, Seed: deploymentSeed,
	})
	if err != nil {
		return nil, err
	}
	s := &system{
		busyRejected: func() int64 { return sys.Network().Counters().Busy },
		close:        sys.Shutdown,
	}
	peers := sys.Peers()
	for i, p := range peers {
		s.nodes = append(s.nodes, p.Node)
		if tr != nil {
			// Re-attach the node behind a traced handler, then give it the
			// new endpoint's transport behind a traced transport.
			addr := simnet.Addr(p.Node.Self().Addr)
			ep := sys.Network().Attach(addr, &tracedHandler{inner: p.Node, tr: tr, node: uint16(i)})
			p.Node.Attach(&tracedTransport{inner: ep, tr: tr})
		}
	}
	var counters []func() int64
	for i, p := range peers[:clientPeers] {
		if tr == nil {
			s.clients = append(s.clients, peerClient{p})
			counters = append(counters, p.Lookups)
			continue
		}
		// NewSystem's engine, rebuilt over a traced store.
		ov := dht.NewOverlay(p.Node, nil)
		e, err := core.NewEngine(&tracedStore{inner: ov, tr: tr, fanout: true}, engineConfig(deploymentSeed+int64(i)))
		if err != nil {
			sys.Shutdown()
			return nil, err
		}
		s.clients = append(s.clients, engineClient{e})
		counters = append(counters, ov.Lookups)
	}
	s.blockOps = sumLookups(counters)
	s.verifier = peerClient{peers[simNodes/2]}

	if prefill {
		byAddr := make(map[string]*kademlia.Node, len(peers))
		for _, n := range s.nodes {
			byAddr[n.Self().Addr] = n
		}
		arcs := make([]wire.Entry, hotBlockArcs)
		for i := range arcs {
			arcs[i] = wire.Entry{Field: prefillArc(i), Count: uint64(1 + i%17)}
		}
		replicas := peers[0].Node.Config().K
		for rank := 0; rank < hotBlocks; rank++ {
			key := core.BlockKey(tagNames[rank], core.BlockTagResources)
			for _, c := range sys.Cluster().ClosestGroundTruth(key, replicas) {
				if err := byAddr[c.Addr].LocalStore().Append(context.Background(), key, arcs); err != nil {
					sys.Shutdown()
					return nil, err
				}
			}
		}
	}
	return s, nil
}

func bootLocal(_ scratchDirs, tr *tracer) (*system, error) {
	engine, store, err := dharma.NewLocalEngine(dharma.Config{
		Mode: dharma.Approximated, K: connectionK, Seed: deploymentSeed,
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if engine, err = core.NewEngine(&tracedStore{inner: store, tr: tr}, engineConfig(deploymentSeed)); err != nil {
			return nil, err
		}
	}
	c := engineClient{engine}
	return &system{
		clients:      []client{c},
		verifier:     c, // one engine: there is no other peer to read through
		blockOps:     store.Lookups,
		busyRejected: func() int64 { return 0 },
		close:        func() {},
	}, nil
}

func bootUDP(newDir scratchDirs, tr *tracer) (*system, error) {
	dir, err := newDir()
	if err != nil {
		return nil, err
	}
	// A benchmark-created CA; keys come from a seeded source so node IDs
	// (and with them replica placement) repeat.
	keyRng := rand.New(rand.NewSource(deploymentSeed))
	ca, err := likir.NewAuthority(keyRng, 0, nil)
	if err != nil {
		return nil, err
	}
	caDir := filepath.Join(dir, "ca")
	if err := ca.SaveCA(caDir); err != nil {
		return nil, err
	}

	ctx := context.Background()
	var peers []*dharma.Peer
	closeAll := func() {
		for _, p := range peers {
			p.Close() //nolint:errcheck // teardown
		}
	}
	var transports []simnet.Transport
	for i := 0; i < udpPeers; i++ {
		name := fmt.Sprintf("peer-%d", i)
		ident, err := ca.Issue(keyRng, name)
		if err != nil {
			closeAll()
			return nil, err
		}
		idPath := filepath.Join(dir, name+".id")
		if err := ident.Save(idPath); err != nil {
			closeAll()
			return nil, err
		}
		cfg := dharma.UDPPeerConfig{
			Config: dharma.Config{
				Mode: dharma.Approximated, K: connectionK,
				DataDir: filepath.Join(dir, name), Seed: deploymentSeed + int64(i) + 1,
			},
			Listen:       "127.0.0.1:0",
			IdentityPath: idPath,
			CAPath:       likir.PublicKeyPath(caDir),
			RequireAuth:  true,
		}
		if i > 0 {
			cfg.Bootstrap = []string{string(peers[0].Node.Transport().Addr())}
		}
		p, err := dharma.NewUDPPeer(ctx, cfg)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("udp peer %d: %w", i, err)
		}
		peers = append(peers, p)
		transports = append(transports, p.Node.Transport())
	}

	s := &system{dataDir: dir, close: closeAll}
	s.busyRejected = func() int64 {
		var n int64
		for _, t := range transports {
			n += t.(*wire.UDPTransport).AdmissionStats().Rejected()
		}
		return n
	}
	var counters []func() int64
	// The last peer issues no ops: verification reads back through it.
	for i, p := range peers {
		s.nodes = append(s.nodes, p.Node)
		if tr != nil {
			p.Node.Attach(&tracedTransport{inner: p.Node.Transport(), tr: tr})
		}
		if i == len(peers)-1 {
			break
		}
		if tr == nil {
			s.clients = append(s.clients, peerClient{p})
			counters = append(counters, p.Lookups)
			continue
		}
		ov := dht.NewOverlay(p.Node, p.Node.Identity())
		e, err := core.NewEngine(&tracedStore{inner: ov, tr: tr, fanout: true}, engineConfig(deploymentSeed+int64(i)+1))
		if err != nil {
			closeAll()
			return nil, err
		}
		s.clients = append(s.clients, engineClient{e})
		counters = append(counters, ov.Lookups)
	}
	s.blockOps = sumLookups(counters)
	s.verifier = peerClient{peers[len(peers)-1]}
	return s, nil
}

func sumLookups(counters []func() int64) func() int64 {
	return func() int64 {
		var n int64
		for _, c := range counters {
			n += c()
		}
		return n
	}
}

// seed applies the seeding inserts, one worker per client (inserts
// commute, so the resulting state does not depend on the interleaving),
// and records them in the shadow model.
func (s *system) seed(l opList, model *shadow) error {
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for w, c := range s.clients {
		wg.Add(1)
		go func(w int, c client) {
			defer wg.Done()
			var buf [tagsPerInsert]string
			for i := w; i < len(l.seeding); i += len(s.clients) {
				res := &l.resources[l.seeding[i].res]
				if err := c.insert(context.Background(), res.name, res.uri, res.insertTags(&buf)); err != nil {
					errs[w] = fmt.Errorf("seeding insert %d: %w", i, err)
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, o := range l.seeding {
		model.apply(o)
	}
	return nil
}
