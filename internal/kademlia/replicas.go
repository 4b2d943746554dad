package kademlia

import (
	"sync"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// replicaCacheContacts bounds the replica-set cache by the contacts its
// entries hold rather than by keys, so its memory does not grow with K:
// at 40 B per wire.Contact the entries' arrays take at most 0.94 MiB.
// That is 3072 keys at K=8 and 1228 at the default K=20; a full cache,
// map included, measures 1.12 and 1.16 MiB of heap.
const replicaCacheContacts = 24 << 10

// replicaSets caches, per block key, the k-closest set of the key's last
// clean walk, so a Store to a key this node wrote before skips the walk
// (see Node.Store). The cache holds one routing epoch (Table.Epoch): a
// lookup under any other epoch misses, and the first put of a newer
// epoch clears every entry. A cached slice is never written; a Store
// sends to a copy.
type replicaSets struct {
	mu    sync.Mutex
	epoch uint64
	max   int // keys held at most
	sets  map[kadid.ID][]wire.Contact
}

// get returns the set cached for key under epoch, or nil.
func (c *replicaSets) get(key kadid.ID, epoch uint64) []wire.Contact {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return nil
	}
	return c.sets[key]
}

// put caches set for key as the result of a walk that began at epoch. A
// full cache evicts an arbitrary entry.
func (c *replicaSets) put(key kadid.ID, set []wire.Contact, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case epoch < c.epoch:
		return // the table moved on while this walk ran
	case epoch > c.epoch:
		clear(c.sets)
		c.epoch = epoch
	}
	if _, ok := c.sets[key]; !ok && len(c.sets) >= c.max {
		for k := range c.sets {
			delete(c.sets, k)
			break
		}
	}
	c.sets[key] = set
}

// drop forgets key's set.
func (c *replicaSets) drop(key kadid.ID) {
	c.mu.Lock()
	delete(c.sets, key)
	c.mu.Unlock()
}
