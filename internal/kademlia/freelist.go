package kademlia

import "sync"

// maxIdle bounds how many idle values a freeList keeps: enough for a
// node's usual concurrency (α probes plus a few served requests), small
// enough that a burst does not pin its peak forever.
const maxIdle = 16

// freeList is a bounded stack of idle scratch values. Unlike a
// sync.Pool the garbage collector never empties it, so whether an RPC
// finds warm state (intern table, grown slices) — and with it the
// allocation count of every request — does not depend on GC timing.
// The zero value is ready to use.
type freeList[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// get returns an idle value, or a new zero one when none is idle.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	last := len(f.idle) - 1
	if last < 0 {
		f.mu.Unlock()
		return new(T)
	}
	v := f.idle[last]
	f.idle = f.idle[:last]
	f.mu.Unlock()
	return v
}

// put makes v available to a later get. The caller must hold no
// reference into v afterwards.
func (f *freeList[T]) put(v *T) {
	f.mu.Lock()
	if len(f.idle) < maxIdle {
		f.idle = append(f.idle, v)
	}
	f.mu.Unlock()
}
