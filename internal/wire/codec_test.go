package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dharma/internal/kadid"
)

func sampleMessage() *Message {
	return &Message{
		Kind:    KindFindValue,
		From:    Contact{ID: kadid.HashString("node-a"), Addr: "node-a"},
		Target:  kadid.HashString("rock|3"),
		TopN:    100,
		TraceID: 0x1122334455667788,
		Hop:     3,
		Summary: BlockSummary{Fields: 2, Digest: 0xdeadbeefcafe},
		Contacts: []Contact{
			{ID: kadid.HashString("node-b"), Addr: "node-b"},
			{ID: kadid.HashString("node-c"), Addr: "10.0.0.3:9999"},
		},
		Entries: []Entry{
			{Field: "pop", Count: 42, Init: 1, Data: []byte("x")},
			{Field: "indie", Count: 7, Author: bytes.Repeat([]byte{1}, 32), Sig: bytes.Repeat([]byte{2}, 64)},
		},
		Err:  "",
		Cred: []byte("credential-bytes"),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestEncodeDecodeEmptyMessage(t *testing.T) {
	m := &Message{Kind: KindPing}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Kind != KindPing || len(got.Contacts) != 0 || len(got.Entries) != 0 {
		t.Fatalf("got %+v", got)
	}
}

// TestDecodeRejectsBadVersion: the codec is frozen at one layout. The
// retired versions 2 and 3 are rejected like any other unknown byte,
// not decoded under their old field lists.
func TestDecodeRejectsBadVersion(t *testing.T) {
	b := Encode(sampleMessage())
	for _, v := range []byte{0, 2, 3, codecVersion + 1, 99} {
		b[0] = v
		if _, err := Decode(b); !errors.Is(err, ErrMalformed) {
			t.Fatalf("version byte %d: want ErrMalformed, got %v", v, err)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b := append(Encode(sampleMessage()), 0xFF)
	if _, err := Decode(b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b := Encode(sampleMessage())
	for cut := 1; cut < len(b); cut += 7 {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("Decode accepted a message truncated to %d bytes", cut)
		}
	}
}

func TestDecodeRejectsEmptyInput(t *testing.T) {
	// An empty input has no version byte; byte() returns 0 which fails
	// the version check.
	if _, err := Decode(nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

func TestDecodeRejectsHugeString(t *testing.T) {
	// Hand-craft a message whose From.Addr length claims > MaxStringLen.
	w := &writer{}
	w.byte(codecVersion)
	w.byte(byte(KindPing))
	w.id(kadid.ID{})
	w.uvarint(MaxStringLen + 1) // From.Addr length
	if _, err := Decode(w.buf); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

func TestDecodeRejectsHugeList(t *testing.T) {
	w := &writer{}
	w.byte(codecVersion)
	w.byte(byte(KindNodes))
	w.id(kadid.ID{})
	w.str("a")
	w.id(kadid.ID{})
	w.uvarint(0)              // TopN
	w.uvarint(0)              // Summary.Fields
	w.uvarint(0)              // Summary.Digest
	w.uvarint(0)              // TraceID
	w.uvarint(0)              // Hop
	w.uvarint(0)              // Deadline
	w.uvarint(MaxListLen + 1) // contact count
	if _, err := Decode(w.buf); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		Decode(b) //nolint:errcheck // only checking absence of panics
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(kind uint8, fromID, target [kadid.Size]byte, addr string, topN uint32,
		field string, count, initV uint64, data []byte, errStr string) bool {
		if len(addr) > MaxStringLen || len(field) > MaxStringLen || len(errStr) > MaxStringLen {
			return true
		}
		if len(data) > MaxBlobLen {
			return true
		}
		m := &Message{
			Kind:    Kind(kind),
			From:    Contact{ID: kadid.ID(fromID), Addr: addr},
			Target:  kadid.ID(target),
			TopN:    topN,
			Entries: []Entry{{Field: field, Count: count, Init: initV, Data: data}},
			Err:     errStr,
		}
		if len(data) == 0 {
			m.Entries[0].Data = nil // Decode normalises empty blobs to nil
		}
		b := Encode(m)
		got, err := Decode(b)
		return err == nil && reflect.DeepEqual(m, got) && cap(b) == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryClone(t *testing.T) {
	e := Entry{Field: "f", Count: 3, Data: []byte{1}, Author: []byte{2}, Sig: []byte{3}}
	c := e.Clone()
	c.Data[0] = 9
	c.Author[0] = 9
	c.Sig[0] = 9
	if e.Data[0] != 1 || e.Author[0] != 2 || e.Sig[0] != 3 {
		t.Fatal("Clone shares underlying arrays")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindPing, KindPong, KindStore, KindStoreAck, KindFindNode,
		KindFindValue, KindNodes, KindValue, KindError, KindReplicate, KindBusy,
		KindSummary, KindSummaryReply, KindUnauthorized, Kind(200)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" {
			t.Fatalf("empty name for kind %d", k)
		}
		if seen[s] {
			t.Fatalf("duplicate name %q", s)
		}
		seen[s] = true
	}
}

func BenchmarkEncode(b *testing.B) {
	m := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

func BenchmarkDecode(b *testing.B) {
	raw := Encode(sampleMessage())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
