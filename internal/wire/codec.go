package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"

	"dharma/internal/kadid"
)

// Codec limits. They bound decode-time allocations so a malformed or
// hostile packet cannot make a node allocate unbounded memory.
const (
	MaxStringLen = 1 << 12 // longest field/address/error string
	MaxBlobLen   = 1 << 16 // longest Data/Author/Sig/Cred blob
	MaxListLen   = 1 << 16 // most contacts or entries per message
)

// codecVersion is the one message layout this tree speaks; write-ahead
// logs and snapshots hold payloads in it. Every other version byte is
// rejected with ErrMalformed. Extension rule: a new field is appended
// after Cred, the version byte moves to the next value, and the decoder
// accepts exactly that value — nodes do not interoperate across a
// layout change, so a fleet (and its data directories) upgrades as one.
const codecVersion = 4

// ErrMalformed is wrapped by all decode errors.
var ErrMalformed = errors.New("wire: malformed message")

// Encode serialises m into a fresh byte slice of exactly the encoded
// length. Hot paths whose payloads have one owner at a time use
// EncodePooled and Recycle instead; Encode is for callers whose output
// is kept or shared (a logged record, a prebuilt control frame).
func Encode(m *Message) []byte {
	return AppendEncode(make([]byte, 0, encodedLen(m)), m)
}

// encodedLen returns the number of bytes AppendEncode appends for m;
// the codec tests hold the two field lists in step.
func encodedLen(m *Message) int {
	n := 2 + 2*kadid.Size + strLen(len(m.From.Addr)) + uvarintLen(uint64(m.TopN)) +
		uvarintLen(m.Summary.Fields) + uvarintLen(m.Summary.Digest) + uvarintLen(m.TraceID) +
		uvarintLen(uint64(m.Hop)) + uvarintLen(m.Deadline) +
		uvarintLen(uint64(len(m.Contacts))) + uvarintLen(uint64(len(m.Entries))) +
		strLen(len(m.Err)) + strLen(len(m.Cred))
	for i := range m.Contacts {
		n += kadid.Size + strLen(len(m.Contacts[i].Addr))
	}
	for i := range m.Entries {
		e := &m.Entries[i]
		n += strLen(len(e.Field)) + uvarintLen(e.Count) + uvarintLen(e.Init) +
			strLen(len(e.Data)) + strLen(len(e.Author)) + strLen(len(e.Sig))
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// strLen is the encoded size of a length-prefixed string or blob.
func strLen(n int) int { return uvarintLen(uint64(n)) + n }

// AppendEncode serialises m, appending to dst (which is used as-is, not
// truncated) and returning the extended slice. With a buffer of
// sufficient capacity the call performs no allocation.
func AppendEncode(dst []byte, m *Message) []byte {
	w := &writer{buf: dst}
	w.byte(codecVersion)
	w.byte(byte(m.Kind))
	w.id(m.From.ID)
	w.str(m.From.Addr)
	w.id(m.Target)
	w.uvarint(uint64(m.TopN))
	w.uvarint(m.Summary.Fields)
	w.uvarint(m.Summary.Digest)
	w.uvarint(m.TraceID)
	w.uvarint(uint64(m.Hop))
	w.uvarint(m.Deadline)
	w.uvarint(uint64(len(m.Contacts)))
	for _, c := range m.Contacts {
		w.id(c.ID)
		w.str(c.Addr)
	}
	w.uvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		w.str(e.Field)
		w.uvarint(e.Count)
		w.uvarint(e.Init)
		w.blob(e.Data)
		w.blob(e.Author)
		w.blob(e.Sig)
	}
	w.str(m.Err)
	w.blob(m.Cred)
	return w.buf
}

// Decode parses a message previously produced by Encode into a fresh
// Message. Every string and blob in the result is an owned copy; the
// caller may retain anything indefinitely.
func Decode(b []byte) (*Message, error) {
	m := &Message{}
	if err := decodeInto(m, b, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// Decoder decodes messages while reusing per-decoder state across
// calls: an intern table that deduplicates the strings of the stream
// (peer addresses and field names repeat heavily), so a steady-state
// decode of blob-free messages allocates nothing. A Decoder is NOT safe
// for concurrent use; pool one per worker.
type Decoder struct {
	strs interner
}

// DecodeInto parses b into m, reusing m's Contacts and Entries backing
// arrays when their capacity suffices.
//
// Ownership: strings come from the decoder's intern table and blobs
// (Entry.Data/Author/Sig, Cred) are fresh copies — both are immutable
// or owned and safe to retain forever. Only the Contacts and Entries
// slice HEADERS are recycled: a caller that retains m.Contacts or
// m.Entries (rather than copying the elements out) must not reuse m for
// another DecodeInto while those slices are live.
func (d *Decoder) DecodeInto(m *Message, b []byte) error {
	return decodeInto(m, b, &d.strs)
}

func decodeInto(m *Message, b []byte, strs *interner) error {
	r := &reader{buf: b, strs: strs}
	if v := r.byte(); v != codecVersion {
		return fmt.Errorf("%w: version %d", ErrMalformed, v)
	}
	m.Kind = Kind(r.byte())
	m.From.ID = r.id()
	m.From.Addr = r.str()
	m.Target = r.id()
	m.TopN = uint32(r.uvarint())
	m.Summary.Fields = r.uvarint()
	m.Summary.Digest = r.uvarint()
	m.TraceID = r.uvarint()
	m.Hop = uint32(r.uvarint())
	m.Deadline = r.uvarint()

	nc := r.uvarint()
	if nc > MaxListLen {
		return fmt.Errorf("%w: %d contacts", ErrMalformed, nc)
	}
	m.Contacts = m.Contacts[:0]
	if nc > 0 && r.err == nil {
		if cap(m.Contacts) == 0 {
			m.Contacts = make([]Contact, 0, min(nc, 256))
		}
		for i := uint64(0); i < nc && r.err == nil; i++ {
			m.Contacts = append(m.Contacts, Contact{ID: r.id(), Addr: r.str()})
		}
	}

	ne := r.uvarint()
	if ne > MaxListLen {
		return fmt.Errorf("%w: %d entries", ErrMalformed, ne)
	}
	m.Entries = m.Entries[:0]
	if ne > 0 && r.err == nil {
		if cap(m.Entries) == 0 {
			m.Entries = make([]Entry, 0, min(ne, 256))
		}
		for i := uint64(0); i < ne && r.err == nil; i++ {
			m.Entries = append(m.Entries, Entry{
				Field:  r.str(),
				Count:  r.uvarint(),
				Init:   r.uvarint(),
				Data:   r.blob(),
				Author: r.blob(),
				Sig:    r.blob(),
			})
		}
	}

	m.Err = r.str()
	m.Cred = r.blob()
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != r.off {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf)-r.off)
	}
	return nil
}

// maxPooledBuf bounds the capacity of recycled encode buffers: a
// one-off giant message must not pin its backing array in the free list.
const maxPooledBuf = 1 << 16

// maxIdleBufs bounds the idle buffers over all shards (16 MiB at most).
const maxIdleBufs = 256

// bufs is the free list behind Borrow, EncodePooled and Recycle, shared
// by every node in the process. Unlike a sync.Pool the GC never empties
// it, and a []byte needs no interface allocation. Its shards are entered
// at random, so goroutines seldom queue on one lock (one lock halved
// TestOverloadUDP's goodput under -race); a get tries every shard first.
var bufs [8]struct {
	mu   sync.Mutex
	idle [][]byte
}

// Borrow returns an empty buffer with room for n bytes from the free
// list. Whoever ends up owning the bytes hands them back with Recycle
// once nothing references them; a buffer that is never handed back goes
// to the GC.
func Borrow(n int) []byte {
	var b []byte
	for i, first := 0, rand.N(len(bufs)); i < len(bufs) && b == nil; i++ {
		sh := &bufs[(first+i)%len(bufs)]
		sh.mu.Lock()
		if last := len(sh.idle) - 1; last >= 0 {
			b, sh.idle = sh.idle[last], sh.idle[:last]
		}
		sh.mu.Unlock()
	}
	return slices.Grow(b, n)
}

// EncodePooled serialises m into a Borrow buffer.
func EncodePooled(m *Message) []byte { return AppendEncode(Borrow(encodedLen(m)), m) }

// Recycle hands b to the free list for a later Borrow. Nobody may
// reference b afterwards: a payload an abandoned handler may still read
// goes to the GC instead. Buffers larger than maxPooledBuf, or that meet
// a full shard, are not kept.
func Recycle(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	sh := &bufs[rand.N(len(bufs))]
	sh.mu.Lock()
	if len(sh.idle) < maxIdleBufs/len(bufs) {
		sh.idle = append(sh.idle, b[:0])
	}
	sh.mu.Unlock()
}

type writer struct {
	buf []byte
}

func (w *writer) byte(b byte) { w.buf = append(w.buf, b) }

func (w *writer) id(id kadid.ID) { w.buf = append(w.buf, id[:]...) }

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) blob(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// maxInterned caps the intern table. A hostile stream of unique strings
// simply resets the table and pays a copy per string — the cap bounds
// memory, it is not a correctness boundary.
const maxInterned = 4096

// interner deduplicates decoded strings so repeated addresses and field
// names resolve to existing string headers without allocating. The
// map lookup keyed by string(b) is recognised by the compiler and does
// not copy b.
type interner struct {
	m map[string]string
}

func (in *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if in.m == nil || len(in.m) >= maxInterned {
		in.m = make(map[string]string, 64)
	}
	s := string(b)
	in.m[s] = s
	return s
}

type reader struct {
	buf  []byte
	off  int
	err  error
	strs *interner // nil: copy strings fresh (Decode path)
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
	}
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) id() kadid.ID {
	var id kadid.ID
	if r.err != nil {
		return id
	}
	if r.off+kadid.Size > len(r.buf) {
		r.fail("truncated id")
		return id
	}
	copy(id[:], r.buf[r.off:])
	r.off += kadid.Size
	return id
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > MaxStringLen {
		r.fail("string of %d bytes", n)
		return ""
	}
	if r.off+int(n) > len(r.buf) {
		r.fail("truncated string")
		return ""
	}
	src := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	if r.strs != nil {
		return r.strs.intern(src)
	}
	return string(src)
}

func (r *reader) blob() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n > MaxBlobLen {
		r.fail("blob of %d bytes", n)
		return nil
	}
	if r.off+int(n) > len(r.buf) {
		r.fail("truncated blob")
		return nil
	}
	b := append([]byte(nil), r.buf[r.off:r.off+int(n)]...)
	r.off += int(n)
	return b
}
