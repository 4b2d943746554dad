// Package core implements DHARMA, the paper's primary contribution: the
// mapping of a folksonomy onto a DHT as four block types, the three
// primitives (resource insertion, tagging, search step) with the exact
// lookup costs of Table I, and the two approximations that bound the
// cost of a tagging operation:
//
//   - Approximation A: the reverse FG arcs (τ,t), τ ∈ Tags(r), are
//     updated only for a uniform random subset of Tags(r) of size at
//     most k (the "connection parameter"), so tagging costs 4+k lookups
//     instead of 4+|Tags(r)|.
//   - Approximation B: a forward FG arc (t,τ) that does not exist yet
//     is created at weight 1 instead of u(τ,r) (existing arcs still grow
//     by the theoretic increment). Two users concurrently adding the
//     same new tag can then inflate a fresh arc by at most 1, instead of
//     double-counting a u(τ,r)-sized increment.
//
// The engine runs over any dht.Store: a live Kademlia overlay or an
// in-process store with identical semantics.
package core

import (
	"crypto/sha1"
	"fmt"
	"strconv"

	"dharma/internal/kadid"
)

// BlockType discriminates the four block families of §IV-A.
type BlockType byte

// The four block types. A block's DHT key is derived from the name of
// its graph node concatenated with the block type, so the four
// projections of the same name live at independent overlay locations.
const (
	// BlockResourceTags is r̄: {(t, u(t,r)) | t ∈ Tags(r)}.
	BlockResourceTags BlockType = 1
	// BlockTagResources is t̄: {(r, u(t,r)) | r ∈ Res(t)}.
	BlockTagResources BlockType = 2
	// BlockTagNeighbors is t̂: {(t', sim(t,t')) | t' ∈ N_FG(t)}.
	BlockTagNeighbors BlockType = 3
	// BlockResourceURI is r̃: (r, URI(r)).
	BlockResourceURI BlockType = 4
)

// String names the block type with the paper's notation.
func (bt BlockType) String() string {
	switch bt {
	case BlockResourceTags:
		return "r̄ (resource→tags)"
	case BlockTagResources:
		return "t̄ (tag→resources)"
	case BlockTagNeighbors:
		return "t̂ (tag→neighbors)"
	case BlockResourceURI:
		return "r̃ (resource URI)"
	default:
		return fmt.Sprintf("block-type-%d", byte(bt))
	}
}

// BlockKey maps a graph-node name and block type to the DHT key the
// block lives under: SHA-1(name ‖ "|" ‖ type). The type is the final
// "|"-separated segment, so distinct (name, type) pairs can never
// collide even when names themselves contain '|'. The name streams into
// the digest through a stack buffer, so no key allocates.
func BlockKey(name string, bt BlockType) (id kadid.ID) {
	var buf [64]byte
	h := sha1.New()
	for len(name) > 0 {
		n := copy(buf[:], name)
		h.Write(buf[:n])
		name = name[n:]
	}
	h.Write(strconv.AppendUint(append(buf[:0], '|'), uint64(bt), 10))
	h.Sum(id[:0])
	return id
}
