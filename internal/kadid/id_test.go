package kadid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestFromBytes(t *testing.T) {
	b := make([]byte, Size)
	for i := range b {
		b[i] = byte(i)
	}
	id, err := FromBytes(b)
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	for i := range b {
		if id[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, id[i], i)
		}
	}
	if _, err := FromBytes(b[:10]); err == nil {
		t.Fatal("FromBytes accepted short input")
	}
	if _, err := FromBytes(append(b, 0)); err == nil {
		t.Fatal("FromBytes accepted long input")
	}
}

func TestHashStringDeterministic(t *testing.T) {
	a := HashString("rock|2")
	b := HashString("rock|2")
	if a != b {
		t.Fatal("HashString not deterministic")
	}
	if a == HashString("rock|3") {
		t.Fatal("different names must map to different keys")
	}
}

func TestDistanceProperties(t *testing.T) {
	r := rng(1)
	cfg := &quick.Config{MaxCount: 500, Rand: r}

	// d(x, x) == 0
	identity := func(raw [Size]byte) bool {
		x := ID(raw)
		return Distance(x, x).IsZero()
	}
	if err := quick.Check(identity, cfg); err != nil {
		t.Errorf("identity: %v", err)
	}

	// d(x, y) == d(y, x)
	symmetry := func(a, b [Size]byte) bool {
		return Distance(ID(a), ID(b)) == Distance(ID(b), ID(a))
	}
	if err := quick.Check(symmetry, cfg); err != nil {
		t.Errorf("symmetry: %v", err)
	}

	// XOR triangle equality: d(x,z) <= d(x,y) + d(y,z) holds because
	// d(x,z) = d(x,y) XOR d(y,z) and XOR never exceeds the sum.
	triangle := func(a, b, c [Size]byte) bool {
		x, y, z := ID(a), ID(b), ID(c)
		dxz := Distance(x, z)
		dxy := Distance(x, y)
		dyz := Distance(y, z)
		// Compare big-endian integers: dxz <= dxy + dyz.
		sum, carry := addIDs(dxy, dyz)
		if carry {
			return true // sum overflowed 160 bits, trivially larger
		}
		return Cmp(dxz, sum) <= 0
	}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Errorf("triangle: %v", err)
	}

	// Unidirectionality: for any x and distance d there is exactly one y
	// with d(x,y)=d, namely y = x XOR d.
	unidir := func(a, d [Size]byte) bool {
		x := ID(a)
		y := Distance(x, ID(d)) // y = x ^ d
		return Distance(x, y) == ID(d)
	}
	if err := quick.Check(unidir, cfg); err != nil {
		t.Errorf("unidirectionality: %v", err)
	}
}

// addIDs adds two IDs as 160-bit big-endian integers.
func addIDs(a, b ID) (ID, bool) {
	var out ID
	carry := 0
	for i := Size - 1; i >= 0; i-- {
		s := int(a[i]) + int(b[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out, carry != 0
}

func TestCmp(t *testing.T) {
	var a, b ID
	if Cmp(a, b) != 0 {
		t.Fatal("equal IDs must compare 0")
	}
	b[Size-1] = 1
	if Cmp(a, b) != -1 || Cmp(b, a) != 1 {
		t.Fatal("ordering broken for low byte")
	}
	a[0] = 1
	if Cmp(a, b) != 1 {
		t.Fatal("high byte must dominate")
	}
}

func TestCloserConsistentWithDistanceCmp(t *testing.T) {
	f := func(a, b, tgt [Size]byte) bool {
		x, y, target := ID(a), ID(b), ID(tgt)
		want := Cmp(Distance(x, target), Distance(y, target)) < 0
		return Closer(x, y, target) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng(2)}); err != nil {
		t.Fatal(err)
	}
}

func TestCommonPrefixLen(t *testing.T) {
	var a, b ID
	if got := CommonPrefixLen(a, b); got != Bits {
		t.Fatalf("identical IDs: got %d, want %d", got, Bits)
	}
	b[0] = 0x80
	if got := CommonPrefixLen(a, b); got != 0 {
		t.Fatalf("first bit differs: got %d, want 0", got)
	}
	b[0] = 0x01
	if got := CommonPrefixLen(a, b); got != 7 {
		t.Fatalf("bit 7 differs: got %d, want 7", got)
	}
	b[0] = 0
	b[5] = 0x10
	if got := CommonPrefixLen(a, b); got != 43 {
		t.Fatalf("bit 43 differs: got %d, want 43", got)
	}
}

func TestBucketIndex(t *testing.T) {
	var self ID
	if got := BucketIndex(self, self); got != -1 {
		t.Fatalf("self bucket: got %d, want -1", got)
	}
	other := self
	other[Size-1] = 1 // differs only in the last bit
	if got := BucketIndex(self, other); got != Bits-1 {
		t.Fatalf("nearest bucket: got %d, want %d", got, Bits-1)
	}
	other = self
	other[0] = 0x80
	if got := BucketIndex(self, other); got != 0 {
		t.Fatalf("farthest bucket: got %d, want 0", got)
	}
}

func TestRandomInBucket(t *testing.T) {
	r := rng(3)
	ref := Random(r)
	for _, bucket := range []int{0, 1, 7, 8, 80, 158, 159} {
		id := RandomInBucket(ref, bucket, r)
		if got := BucketIndex(ref, id); got != bucket {
			t.Fatalf("bucket %d: generated ID lands in bucket %d", bucket, got)
		}
	}
}

func TestRandomInBucketPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range bucket")
		}
	}()
	RandomInBucket(ID{}, Bits, rng(4))
}

func TestParseRoundTrip(t *testing.T) {
	r := rng(5)
	for i := 0; i < 50; i++ {
		id := Random(r)
		got, err := Parse(id.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", id.String(), err)
		}
		if got != id {
			t.Fatalf("round trip mismatch: %v != %v", got, id)
		}
	}
	if _, err := Parse("zz"); err == nil {
		t.Fatal("Parse accepted a short string")
	}
	if _, err := Parse("zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"); err == nil {
		t.Fatal("Parse accepted non-hex input")
	}
}

func TestShortAndString(t *testing.T) {
	id := HashString("x")
	if len(id.String()) != 40 {
		t.Fatalf("String length = %d, want 40", len(id.String()))
	}
	if len(id.Short()) != 8 {
		t.Fatalf("Short length = %d, want 8", len(id.Short()))
	}
	if id.String()[:8] != id.Short() {
		t.Fatal("Short must be a prefix of String")
	}
}

func TestRandomUniform(t *testing.T) {
	// Cheap sanity check: with 2000 random IDs the mean of the first byte
	// should be near 127.5 and all-zero IDs should not appear.
	r := rng(7)
	sum := 0
	for i := 0; i < 2000; i++ {
		id := Random(r)
		if id.IsZero() {
			t.Fatal("random ID was zero")
		}
		sum += int(id[0])
	}
	mean := float64(sum) / 2000
	if mean < 110 || mean > 145 {
		t.Fatalf("first-byte mean %.1f, expected near 127.5", mean)
	}
}
