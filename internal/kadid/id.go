// Package kadid provides 160-bit Kademlia identifiers and the XOR
// distance metric they are compared under.
//
// Both overlay nodes and stored blocks live in the same identifier
// space; a block is stored on the nodes whose identifiers are closest
// (in XOR distance) to the block key. Keys are derived with SHA-1 as in
// the original Kademlia paper.
package kadid

import (
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// Size is the identifier length in bytes (160 bits, as in Kademlia).
const Size = 20

// Bits is the identifier length in bits.
const Bits = Size * 8

// ID is a 160-bit identifier in the Kademlia key space. The zero value
// is the all-zeroes identifier and is valid.
type ID [Size]byte

// FromBytes builds an ID from exactly Size bytes.
func FromBytes(b []byte) (ID, error) {
	var id ID
	if len(b) != Size {
		return id, fmt.Errorf("kadid: need %d bytes, got %d", Size, len(b))
	}
	copy(id[:], b)
	return id, nil
}

// HashString derives an ID from an arbitrary string with SHA-1. This is
// how block names are mapped onto the key space.
func HashString(s string) ID {
	return ID(sha1.Sum([]byte(s)))
}

// Random returns a uniformly random ID drawn from rng.
func Random(rng *rand.Rand) ID {
	var id ID
	for i := 0; i < Size; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < Size; j++ {
			id[i+j] = byte(v >> (8 * j))
		}
	}
	return id
}

// RandomInBucket returns a random ID whose XOR distance from ref has its
// highest set bit at position bucket (counting from the most significant
// bit, 0-based). Such an ID falls into routing-table bucket `bucket` of a
// node with identifier ref. It is used for bucket refreshes.
func RandomInBucket(ref ID, bucket int, rng *rand.Rand) ID {
	if bucket < 0 || bucket >= Bits {
		panic(fmt.Sprintf("kadid: bucket %d out of range", bucket))
	}
	id := Random(rng)
	// Force the first `bucket` bits to equal ref's, flip bit `bucket`.
	for i := 0; i < bucket; i++ {
		setBit(&id, i, bit(ref, i))
	}
	setBit(&id, bucket, !bit(ref, bucket))
	return id
}

func bit(id ID, i int) bool {
	return id[i/8]&(0x80>>(i%8)) != 0
}

func setBit(id *ID, i int, v bool) {
	mask := byte(0x80 >> (i % 8))
	if v {
		id[i/8] |= mask
	} else {
		id[i/8] &^= mask
	}
}

// Distance returns the XOR distance between a and b.
func Distance(a, b ID) ID {
	var d ID
	for i := range a {
		d[i] = a[i] ^ b[i]
	}
	return d
}

// Cmp compares a and b as 160-bit big-endian unsigned integers.
// It returns -1 if a < b, 0 if a == b, +1 if a > b.
func Cmp(a, b ID) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Closer reports whether a is strictly closer to target than b is,
// under the XOR metric.
func Closer(a, b, target ID) bool {
	for i := range target {
		da := a[i] ^ target[i]
		db := b[i] ^ target[i]
		if da != db {
			return da < db
		}
	}
	return false
}

// CommonPrefixLen returns the number of leading bits a and b share.
// For a == b it returns Bits.
func CommonPrefixLen(a, b ID) int {
	for i := range a {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return Bits
}

// BucketIndex returns the routing-table bucket an ID at distance d from
// self belongs to: the position of the highest set bit of the XOR
// distance (0 = farthest half of the space, Bits-1 = nearest neighbours).
// It returns -1 when other == self.
func BucketIndex(self, other ID) int {
	cpl := CommonPrefixLen(self, other)
	if cpl == Bits {
		return -1
	}
	return cpl
}

// Bit reports whether bit i of the identifier is set, counting from the
// most significant bit (0-based). The routing table's expanding-ring
// walk uses the bits of a XOR distance to order buckets by proximity.
func (id ID) Bit(i int) bool {
	return bit(id, i)
}

// IsZero reports whether id is the all-zero identifier.
func (id ID) IsZero() bool {
	for _, b := range id {
		if b != 0 {
			return false
		}
	}
	return true
}

// String returns the full lowercase hex encoding of the identifier.
func (id ID) String() string {
	return hex.EncodeToString(id[:])
}

// Short returns an 8-hex-digit prefix, convenient for logs.
func (id ID) Short() string {
	return hex.EncodeToString(id[:4])
}

// Parse decodes a 40-character hex string into an ID.
func Parse(s string) (ID, error) {
	var id ID
	if len(s) != Size*2 {
		return id, errors.New("kadid: hex string must be 40 characters")
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("kadid: %w", err)
	}
	copy(id[:], b)
	return id, nil
}
