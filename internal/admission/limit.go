package admission

import "sync"

// DefaultMaxOps is the ceiling of a Limit: the operations a node runs
// at once before its servers have reported any overload. It sits far
// above what a healthy node runs (see MinOps) and low enough that the
// first overload it meets is already bounded: started at 1024, the
// limit needed so many cuts that TestOverloadUDP's one-second 4x phase
// ended before it bound, and the gate passed 4 of 6 runs under -race;
// 64 and 128 both passed 8 of 8 runs of both overload gates. 128 leaves
// the more room for bursts.
const DefaultMaxOps = 128

// MinOps is the floor of a Limit. A healthy node ran at most 7 block
// operations at once, on any node across the test suite and the four
// benchmark workloads, so a cut that a short caller deadline set off in
// error cannot make such a node refuse work.
const MinOps = 8

// Limit is the client half of overload protection: an adaptive bound on
// the operations one node runs at once, steered by the overload its
// servers report. The server half (Controller) answers excess requests
// BUSY; without this half a client keeps every operation going, retries
// and routes around the busy servers until its deadline, and at 4x load
// every operation ends that way.
//
// The rule is additive increase, multiplicative decrease, as TCP
// applies to its congestion window (RFC 5681): an operation that failed
// for overload — answered BUSY, or out of time — sets the limit to half
// the operations then in flight (or half the limit, if that is lower),
// as TCP sets its threshold to half the flight size, but never below
// MinOps; an operation that completed otherwise raises it by 1/limit,
// so about one per limit's worth of completions, up to the ceiling. An operation started before
// the latest cut cannot cut again: its failure came from the load that
// cut already answered, the way TCP reacts to one loss per window, not
// to every packet of it.
//
// Past the limit an operation is refused at once (Acquire reports
// false), so excess load fails in microseconds instead of queueing into
// its deadline, and the CPU and server slots it would have spent go to
// the operations that can still finish in time.
type Limit struct {
	mu      sync.Mutex
	ceiling float64
	floor   float64 // MinOps, or the ceiling if that is lower
	limit   float64
	running int
	cuts    uint64 // halvings so far
}

// NewLimit returns a limit that starts at, and never exceeds, ceiling
// (≤ 0 = DefaultMaxOps). A ceiling below MinOps is also the floor.
func NewLimit(ceiling int) *Limit {
	if ceiling <= 0 {
		ceiling = DefaultMaxOps
	}
	return &Limit{ceiling: float64(ceiling), floor: float64(min(MinOps, ceiling)), limit: float64(ceiling)}
}

// Acquire starts one operation if fewer than the limit are running. On
// success the caller must call Release once with the returned ticket
// when the operation ends; on refusal there is nothing to release.
func (l *Limit) Acquire() (ticket uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if float64(l.running) >= l.limit {
		return 0, false
	}
	l.running++
	return l.cuts, true
}

// Release ends the operation Acquire admitted with ticket. overloaded
// reports that it failed for overload.
func (l *Limit) Release(ticket uint64, overloaded bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	inFlight := float64(l.running)
	l.running--
	switch {
	case !overloaded:
		l.limit = min(l.ceiling, l.limit+1/l.limit)
	case ticket == l.cuts:
		l.limit = max(l.floor, min(l.limit, inFlight)/2)
		l.cuts++
	}
}

// Value returns the current limit, rounded down.
func (l *Limit) Value() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.limit)
}
