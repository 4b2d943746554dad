package kademlia

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dharma/internal/admission"
	"dharma/internal/kadid"
	"dharma/internal/obs"
	"dharma/internal/simnet"
	"dharma/internal/wire"
)

// wiredCluster builds a 16-node overlay whose routing tables are wired
// offline, so no join traffic moves a table during a test.
func wiredCluster(t *testing.T, k int, seed int64) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		N: 16, Node: Config{K: k, Alpha: 3}, Seed: seed, Bootstrap: BootstrapWired,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// sendLog wraps a node's transport and records the kind and address of
// every request the node sends.
type sendLog struct {
	simnet.Transport
	mu   sync.Mutex
	sent []sentRequest
}

type sentRequest struct {
	kind wire.Kind
	to   simnet.Addr
}

func logSends(n *Node) *sendLog {
	l := &sendLog{Transport: n.Transport()}
	n.Attach(l)
	return l
}

func (l *sendLog) Call(ctx context.Context, to simnet.Addr, payload []byte) ([]byte, error) {
	if m, err := wire.Decode(payload); err == nil {
		l.mu.Lock()
		l.sent = append(l.sent, sentRequest{m.Kind, to})
		l.mu.Unlock()
	}
	return l.Transport.Call(ctx, to, payload)
}

// take returns the requests logged since the last take.
func (l *sendLog) take() []sentRequest {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.sent
	l.sent = nil
	return out
}

// cachedSet returns a copy of the set n caches for key under its
// table's current epoch (nil when none).
func cachedSet(n *Node, key kadid.ID) []wire.Contact {
	return slices.Clone(n.replicas.get(key, n.table.Epoch()))
}

// walksAndHits reads n's walk and replica-set-hit counters.
func walksAndHits(n *Node) (walks, hits int64) {
	c := n.Counters()
	return c.Lookups.Load(), c.ReplicaSetHits.Load()
}

// TestStoreReusesReplicaSet: the second Store of a key from one node
// sends one STORE to each replica other than itself and nothing else:
// no FIND_NODE, no walk.
func TestStoreReusesReplicaSet(t *testing.T) {
	cl := wiredCluster(t, 8, 81)
	writer := cl.Nodes[3]
	log := logSends(writer)
	ctx := context.Background()
	entries := []wire.Entry{{Field: "f", Count: 1}}
	key := kadid.HashString("reuse|1")

	if _, err := writer.Store(ctx, key, entries); err != nil {
		t.Fatal(err)
	}
	if cachedSet(writer, key) == nil {
		t.Fatal("a clean walk on a quiet overlay left no cached replica set")
	}
	remote := map[simnet.Addr]bool{}
	for _, c := range cl.ClosestGroundTruth(key, 8) {
		if c.ID != writer.Self().ID {
			remote[simnet.Addr(c.Addr)] = true
		}
	}
	log.take()
	walks0, hits0 := walksAndHits(writer)
	calls0 := cl.Net.Counters().Calls

	acks, err := writer.Store(ctx, key, entries)
	if err != nil || acks != 8 {
		t.Fatalf("second Store = %d acks, err %v; want 8", acks, err)
	}
	if calls := cl.Net.Counters().Calls - calls0; calls != int64(len(remote)) {
		t.Errorf("second Store cost %d simnet calls, want %d (the replicas other than the writer)", calls, len(remote))
	}
	for _, s := range log.take() {
		if s.kind != wire.KindStore || !remote[s.to] {
			t.Errorf("second Store sent %v to %s, want only STOREs to the true replicas", s.kind, s.to)
		}
	}
	if walks, hits := walksAndHits(writer); walks != walks0 || hits != hits0+1 {
		t.Errorf("second Store: %d walks and %d hits, want 0 and 1", walks-walks0, hits-hits0)
	}
}

// TestReplicaSetIsNeverWritten: a Store sends to a copy of the cached
// set. With K above the overlay size every walk returns fewer contacts
// than its capacity and the writer is a replica, so insertSelf and the
// swap of the local replica to the end would both land in the cached
// array if Store handed it on. Concurrent batches of shared keys check
// the same under -race.
func TestReplicaSetIsNeverWritten(t *testing.T) {
	cl := wiredCluster(t, 16, 82)
	writer := cl.Nodes[5]
	ctx := context.Background()
	entries := []wire.Entry{{Field: "f", Count: 1}}
	keys := make([]kadid.ID, 8)
	want := make([][]wire.Contact, len(keys))
	for i := range keys {
		keys[i] = kadid.HashString(fmt.Sprintf("shared|%d", i))
		if _, err := writer.Store(ctx, keys[i], entries); err != nil {
			t.Fatal(err)
		}
		if want[i] = cachedSet(writer, keys[i]); len(want[i]) != 15 {
			t.Fatalf("key %d: cached set of %d contacts, want the 15 other nodes", i, len(want[i]))
		}
	}
	items := make([]BatchItem, len(keys))
	for i, k := range keys {
		items[i] = BatchItem{Key: k, Entries: entries}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*3)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				errs <- writer.StoreBatch(ctx, items)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		if got := writer.replicas.get(k, writer.table.Epoch()); !slices.Equal(got, want[i]) {
			t.Fatalf("key %d: cached set changed under Store:\n got %v\nwant %v", i, got, want[i])
		}
	}
	if _, hits := walksAndHits(writer); hits != 4*3*int64(len(keys)) {
		t.Errorf("%d replica-set hits, want %d", hits, 4*3*len(keys))
	}
}

// TestFailedStoreDropsReplicaSet: a member that stops answering fails
// its STORE. That Store still meets its quorum and drops the key's set;
// the Store after it walks and sends nothing to the dead node.
func TestFailedStoreDropsReplicaSet(t *testing.T) {
	cl := wiredCluster(t, 8, 83)
	writer := cl.Nodes[2]
	log := logSends(writer)
	ctx := context.Background()
	entries := []wire.Entry{{Field: "f", Count: 1}}
	key := kadid.HashString("dropped|1")
	if _, err := writer.Store(ctx, key, entries); err != nil {
		t.Fatal(err)
	}
	set := cachedSet(writer, key)
	if set == nil {
		t.Fatal("no cached replica set after a clean walk")
	}
	dead := simnet.Addr(set[0].Addr)
	cl.Net.SetDown(dead, true)

	acks, err := writer.Store(ctx, key, entries)
	if err != nil || acks != 7 {
		t.Fatalf("Store with one member down = %d acks, err %v; want 7", acks, err)
	}
	writer.replicas.mu.Lock()
	_, kept := writer.replicas.sets[key]
	writer.replicas.mu.Unlock()
	if kept {
		t.Fatal("the failed STORE left the key's replica set cached")
	}

	log.take()
	walks0, hits0 := walksAndHits(writer)
	if _, err := writer.Store(ctx, key, entries); err != nil {
		t.Fatal(err)
	}
	if walks, hits := walksAndHits(writer); walks != walks0+1 || hits != hits0 {
		t.Errorf("Store after the failure: %d walks and %d hits, want 1 and 0", walks-walks0, hits-hits0)
	}
	for _, s := range log.take() {
		if s.kind == wire.KindStore && s.to == dead {
			t.Errorf("Store after the failure sent a STORE to the dead node %s", dead)
		}
	}
}

// TestMaintainOnceStartsNewEpoch: a maintenance round invalidates every
// cached replica set, so the next Store walks.
func TestMaintainOnceStartsNewEpoch(t *testing.T) {
	cl := wiredCluster(t, 8, 84)
	writer := cl.Nodes[7]
	ctx := context.Background()
	entries := []wire.Entry{{Field: "f", Count: 1}}
	key := kadid.HashString("epoch|1")
	if _, err := writer.Store(ctx, key, entries); err != nil {
		t.Fatal(err)
	}
	if cachedSet(writer, key) == nil {
		t.Fatal("no cached replica set after a clean walk")
	}
	writer.MaintainOnce(ctx)
	walks0, hits0 := walksAndHits(writer)
	if _, err := writer.Store(ctx, key, entries); err != nil {
		t.Fatal(err)
	}
	if walks, hits := walksAndHits(writer); walks != walks0+1 || hits != hits0 {
		t.Errorf("Store after MaintainOnce: %d walks and %d hits, want 1 and 0", walks-walks0, hits-hits0)
	}
}

// TestReplicaSetHitsExported: dharma_replica_set_hits_total is on the
// node's registry and counts a repeated Store.
func TestReplicaSetHitsExported(t *testing.T) {
	cl := wiredCluster(t, 8, 85)
	writer := cl.Nodes[1]
	scrape := func() float64 {
		t.Helper()
		var b strings.Builder
		if err := writer.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		parsed, err := obs.ParsePrometheus(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		m, ok := parsed["dharma_replica_set_hits_total"]
		if !ok {
			t.Fatal("/metrics has no dharma_replica_set_hits_total")
		}
		return m.Value
	}
	key := kadid.HashString("exported|1")
	for i, want := range []float64{0, 1, 2} {
		if _, err := writer.Store(context.Background(), key, []wire.Entry{{Field: "f", Count: 1}}); err != nil {
			t.Fatal(err)
		}
		if got := scrape(); got != want {
			t.Fatalf("after Store %d: dharma_replica_set_hits_total = %v, want %v", i+1, got, want)
		}
	}
}

// busyStores refuses every STORE with ErrBusy and hands everything else to
// the node it wraps.
type busyStores struct{ *Node }

func (b busyStores) HandleRPC(ctx context.Context, from simnet.Addr, payload []byte) ([]byte, error) {
	if m, err := wire.Decode(payload); err == nil && m.Kind == wire.KindStore {
		return nil, wire.ErrBusy
	}
	return b.Node.HandleRPC(ctx, from, payload)
}

// TestBusyStoreKeepsReplicaSet: a member that answers BUSY is alive and
// still a replica, so the Store that met it keeps the key's set and the
// next Store sends to it again without walking.
func TestBusyStoreKeepsReplicaSet(t *testing.T) {
	cl := wiredCluster(t, 8, 86)
	writer := cl.Nodes[4]
	ctx := context.Background()
	entries := []wire.Entry{{Field: "f", Count: 1}}
	key := kadid.HashString("busy|1")
	if _, err := writer.Store(ctx, key, entries); err != nil {
		t.Fatal(err)
	}
	set := cachedSet(writer, key)
	if set == nil {
		t.Fatal("no cached replica set after a clean walk")
	}
	for _, n := range cl.Nodes {
		if n.Self().ID == set[0].ID {
			n.Attach(cl.Net.Attach(simnet.Addr(set[0].Addr), busyStores{n}))
		}
	}
	for i := range 2 {
		walks0, hits0 := walksAndHits(writer)
		acks, err := writer.Store(ctx, key, entries)
		if err != nil || acks != 7 {
			t.Fatalf("Store %d with one member busy = %d acks, err %v; want 7", i+1, acks, err)
		}
		if walks, hits := walksAndHits(writer); walks != walks0 || hits != hits0+1 {
			t.Fatalf("Store %d with one member busy: %d walks and %d hits, want 0 and 1", i+1, walks-walks0, hits-hits0)
		}
	}
}

// TestReaddressedMemberMovesEpoch: a replica-set member that comes
// back at a new address is a routing change. Once the writer hears
// from it there, the next Store walks and writes to the new address,
// and the member stays in the writer's table.
func TestReaddressedMemberMovesEpoch(t *testing.T) {
	cl := wiredCluster(t, 8, 89)
	writer := cl.Nodes[5]
	ctx := context.Background()
	key := kadid.HashString("readdress|1")
	if _, err := writer.Store(ctx, key, []wire.Entry{{Field: "before", Count: 1}}); err != nil {
		t.Fatal(err)
	}
	set := cachedSet(writer, key)
	if set == nil {
		t.Fatal("no cached replica set after a clean walk")
	}
	var member *Node
	for _, n := range cl.Nodes {
		if n != writer && n.Self().ID == set[0].ID {
			member = n
		}
	}
	old := simnet.Addr(member.Self().Addr)
	cl.Net.Detach(old)
	member.Attach(cl.Net.Attach(old+"-moved", member))
	if !member.Ping(ctx, writer.Self()) {
		t.Fatal("the moved member could not reach the writer")
	}

	walks0, hits0 := walksAndHits(writer)
	if _, err := writer.Store(ctx, key, []wire.Entry{{Field: "after", Count: 1}}); err != nil {
		t.Fatal(err)
	}
	if walks, hits := walksAndHits(writer); walks != walks0+1 || hits != hits0 {
		t.Errorf("Store after a member moved: %d walks and %d hits, want 1 and 0", walks-walks0, hits-hits0)
	}
	if es, ok := member.LocalStore().Get(key, 0); !ok || !slices.ContainsFunc(es, func(e wire.Entry) bool { return e.Field == "after" }) {
		t.Error("the Store after the move did not reach the member at its new address")
	}
	if !slices.ContainsFunc(writer.Table().Closest(key, 8), func(c wire.Contact) bool { return c.ID == member.Self().ID }) {
		t.Error("the writer dropped the moved member from its table")
	}
}

// amongClosest reports whether n is one of the k members of cl closest
// to key.
func amongClosest(cl *Cluster, n *Node, k int, key kadid.ID) bool {
	closer := 0
	for _, m := range cl.Nodes {
		if m != n && kadid.Closer(m.Self().ID, n.Self().ID, key) {
			closer++
		}
	}
	return closer < k
}

// farKey returns a key whose k closest members do not include n.
func farKey(cl *Cluster, n *Node, k int, prefix string) kadid.ID {
	for i := 0; ; i++ {
		if key := kadid.HashString(fmt.Sprintf("%s|%d", prefix, i)); !amongClosest(cl, n, k, key) {
			return key
		}
	}
}

// TestBlockOpsPastTheLimitFailBusy: a node runs at most its adaptive
// limit of block operations at once. With the limit held by Stores
// whose STOREs cannot finish, one more Store and one more FindValue fail
// BUSY at once, without walking, and the held ones complete once
// released.
func TestBlockOpsPastTheLimitFailBusy(t *testing.T) {
	cl := wiredCluster(t, 8, 87)
	writer := cl.Nodes[0]
	writer.ops = admission.NewLimit(2)
	release := make(chan struct{})
	for _, n := range cl.Nodes[1:] {
		h := simnet.HandlerFunc(func(ctx context.Context, from simnet.Addr, payload []byte) ([]byte, error) {
			if m, err := wire.Decode(payload); err == nil && m.Kind == wire.KindStore {
				<-release
			}
			return n.HandleRPC(ctx, from, payload)
		})
		n.Attach(cl.Net.Attach(simnet.Addr(n.Self().Addr), h))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entries := []wire.Entry{{Field: "f", Count: 1}}
	held := make(chan error, 2)
	for i := range 2 {
		go func() {
			_, err := writer.Store(ctx, kadid.HashString(fmt.Sprintf("limited|%d", i)), entries)
			held <- err
		}()
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := writer.ops.Acquire(); !ok {
			break
		} else if writer.ops.Release(0, false); time.Now().After(deadline) {
			close(release)
			t.Fatal("the two held Stores never both started")
		}
	}

	walks0, _ := walksAndHits(writer)
	if _, err := writer.Store(ctx, kadid.HashString("limited|extra"), entries); !errors.Is(err, wire.ErrBusy) {
		t.Errorf("Store past the limit = %v, want wire.ErrBusy", err)
	}
	if _, err := writer.FindValue(ctx, kadid.HashString("limited|extra"), 0); !errors.Is(err, wire.ErrBusy) {
		t.Errorf("FindValue past the limit = %v, want wire.ErrBusy", err)
	}
	if walks, _ := walksAndHits(writer); walks != walks0 {
		t.Errorf("operations past the limit walked %d times, want 0", walks-walks0)
	}
	if got := writer.Counters().BlockOpsShed.Load(); got != 2 {
		t.Errorf("dharma_block_ops_shed_total = %d, want 2", got)
	}
	close(release)
	for range 2 {
		if err := <-held; err != nil {
			t.Errorf("held Store: %v", err)
		}
	}
}

// TestOverloadFailuresCutTheLimit: a block operation that fails after
// BUSY answers, or out of time, cuts its node's limit (here to the
// floor, being alone in flight); one that fails for any other reason,
// or succeeds despite BUSY answers, does not.
func TestOverloadFailuresCutTheLimit(t *testing.T) {
	cl := wiredCluster(t, 8, 88)
	ctx := context.Background()
	entries := []wire.Entry{{Field: "f", Count: 1}}
	busyKey := farKey(cl, cl.Nodes[0], 8, "cut|busy")
	// cl.Nodes[3] is itself a replica of ownKey.
	var ownKey kadid.ID
	for i := 0; ownKey.IsZero(); i++ {
		if key := kadid.HashString(fmt.Sprintf("cut|own|%d", i)); amongClosest(cl, cl.Nodes[3], 8, key) {
			ownKey = key
		}
	}
	for _, n := range cl.Nodes {
		n.Attach(cl.Net.Attach(simnet.Addr(n.Self().Addr), simnet.HandlerFunc(func(ctx context.Context, from simnet.Addr, payload []byte) ([]byte, error) {
			if m, err := wire.Decode(payload); err == nil && m.Kind == wire.KindStore && (m.Target == busyKey || m.Target == ownKey) {
				return nil, wire.ErrBusy
			}
			return n.HandleRPC(ctx, from, payload)
		})))
	}

	clean := cl.Nodes[1]
	if _, err := clean.FindValue(ctx, kadid.HashString("cut|missing"), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("FindValue of an unwritten key = %v, want ErrNotFound", err)
	}
	if got := clean.ops.Value(); got != admission.DefaultMaxOps {
		t.Errorf("limit after a not-found = %d, want %d unchanged", got, admission.DefaultMaxOps)
	}

	busy := cl.Nodes[0]
	if _, err := busy.Store(ctx, busyKey, entries); !errors.Is(err, wire.ErrBusy) {
		t.Fatalf("Store whose replicas all answer BUSY = %v, want wire.ErrBusy", err)
	}
	if got := busy.ops.Value(); got != admission.MinOps {
		t.Errorf("limit after a Store failed BUSY = %d, want the floor %d", got, admission.MinOps)
	}

	late := cl.Nodes[2]
	dead, stop := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer stop()
	if _, err := late.FindValue(dead, kadid.HashString("cut|late"), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FindValue past its deadline = %v, want context.DeadlineExceeded", err)
	}
	if got := late.ops.Value(); got != admission.MinOps {
		t.Errorf("limit after a FindValue ran out of time = %d, want the floor %d", got, admission.MinOps)
	}

	// Every remote replica answers BUSY, but the writer's own replica
	// acknowledges: the Store succeeds, and is no overload.
	own := cl.Nodes[3]
	if acks, err := own.Store(ctx, ownKey, entries); err != nil || acks != 1 {
		t.Fatalf("Store acknowledged only by the writer = %d acks, err %v; want 1 ack", acks, err)
	}
	if got := own.ops.Value(); got != admission.DefaultMaxOps {
		t.Errorf("limit after a Store that succeeded beside BUSY answers = %d, want %d", got, admission.DefaultMaxOps)
	}
}
