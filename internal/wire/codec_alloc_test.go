package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dharma/internal/kadid"
)

// lookupMessage is the RPC the overlay sends most at scale: a NODES
// response carrying k contacts and no blobs. This is the shape the
// 0-alloc steady-state claim is made for.
func lookupMessage(k int) *Message {
	m := &Message{
		Kind:   KindNodes,
		From:   Contact{ID: kadid.HashString("server"), Addr: "10.0.0.1:4100"},
		Target: kadid.HashString("target"),
	}
	for i := 0; i < k; i++ {
		m.Contacts = append(m.Contacts, Contact{
			ID:   kadid.HashString(fmt.Sprintf("peer-%d", i)),
			Addr: fmt.Sprintf("10.0.%d.%d:4100", i/256, i%256),
		})
	}
	return m
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	for _, m := range []*Message{sampleMessage(), lookupMessage(20), {Kind: KindPing}} {
		want := Encode(m)
		if cap(want) != len(want) {
			t.Fatalf("Encode(%v) sized its buffer to %d for %d bytes", m.Kind, cap(want), len(want))
		}
		got := AppendEncode(nil, m)
		if string(got) != string(want) {
			t.Fatalf("AppendEncode differs from Encode for %v", m.Kind)
		}
		// Appending after a prefix must leave the prefix intact.
		withPrefix := AppendEncode([]byte("prefix"), m)
		if string(withPrefix[:6]) != "prefix" || string(withPrefix[6:]) != string(want) {
			t.Fatal("AppendEncode clobbered the prefix or the payload")
		}
	}
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	var d Decoder
	var reused Message
	// Decode a sequence of different messages into the SAME struct; each
	// result must equal the fresh Decode of the same bytes.
	for i, m := range []*Message{
		sampleMessage(),
		lookupMessage(20),
		{Kind: KindPing},
		lookupMessage(3),
		sampleMessage(),
	} {
		b := Encode(m)
		want, err := Decode(b)
		if err != nil {
			t.Fatalf("step %d: Decode: %v", i, err)
		}
		if err := d.DecodeInto(&reused, b); err != nil {
			t.Fatalf("step %d: DecodeInto: %v", i, err)
		}
		// Normalise empty-vs-nil slices (DecodeInto leaves truncated
		// capacity behind; Decode yields nil).
		got := reused
		if len(got.Contacts) == 0 {
			got.Contacts = nil
		}
		if len(got.Entries) == 0 {
			got.Entries = nil
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("step %d: DecodeInto mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestDecodeIntoRejectsMalformed(t *testing.T) {
	var d Decoder
	var m Message
	b := Encode(sampleMessage())
	if err := d.DecodeInto(&m, b[:len(b)-3]); err == nil {
		t.Fatal("truncated input accepted")
	}
	if err := d.DecodeInto(&m, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestDecodeIntoBlobsAreOwned(t *testing.T) {
	var d Decoder
	var m Message
	b := Encode(sampleMessage())
	if err := d.DecodeInto(&m, b); err != nil {
		t.Fatal(err)
	}
	data := m.Entries[0].Data
	cred := m.Cred
	for i := range b {
		b[i] = 0xff // scribble over the wire bytes
	}
	if string(data) != "x" || string(cred) != "credential-bytes" {
		t.Fatal("decoded blobs alias the input buffer")
	}
}

func TestInternerBounded(t *testing.T) {
	var in interner
	for i := 0; i < 3*maxInterned; i++ {
		_ = in.intern([]byte(fmt.Sprintf("unique-%d", i)))
		if len(in.m) > maxInterned {
			t.Fatalf("intern table grew to %d entries", len(in.m))
		}
	}
	// Despite resets, interning still returns correct strings.
	if s := in.intern([]byte("hello")); s != "hello" {
		t.Fatalf("intern returned %q", s)
	}
}

// TestBufferPoolRoundTrip: the free list behind EncodePooled and
// Recycle hands a buffer back empty and reuses its array, keeps no
// oversized buffer and holds at most maxIdleBufs idle ones.
func TestBufferPoolRoundTrip(t *testing.T) {
	idle := func(drop bool) (n int) {
		for i := range bufs {
			sh := &bufs[i]
			sh.mu.Lock()
			n += len(sh.idle)
			if drop {
				sh.idle = nil
			}
			sh.mu.Unlock()
		}
		return n
	}
	idle(true)
	defer idle(true)

	m := sampleMessage()
	first := EncodePooled(m)
	if !bytes.Equal(first, Encode(m)) {
		t.Fatal("EncodePooled differs from Encode")
	}
	Recycle(first)
	ping := &Message{Kind: KindPing}
	again := EncodePooled(ping)
	if &again[0] != &first[0] {
		t.Fatal("a recycled buffer was not reused")
	}
	if !bytes.Equal(again, Encode(ping)) {
		t.Fatalf("a reused buffer kept %d stale bytes", len(again)-len(Encode(ping)))
	}
	if _, err := Decode(again); err != nil {
		t.Fatal(err)
	}

	Recycle(make([]byte, 0, maxPooledBuf+1))
	if n := idle(false); n != 0 {
		t.Fatalf("an oversized buffer was kept (%d idle)", n)
	}
	for range 2 * maxIdleBufs {
		Recycle(make([]byte, 8))
	}
	if n := idle(false); n == 0 || n > maxIdleBufs {
		t.Fatalf("%d idle buffers after %d recycled, want 1 to %d", n, 2*maxIdleBufs, maxIdleBufs)
	}
}

// BenchmarkAppendEncode is the gated steady-state request-marshal path:
// encoding into a recycled buffer must not allocate.
// scripts/alloc_gate.sh holds it to scripts/alloc_budgets.txt.
func BenchmarkAppendEncode(b *testing.B) {
	m := lookupMessage(20)
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], m)
	}
	if len(buf) == 0 {
		b.Fatal("empty encode")
	}
}

// BenchmarkDecodeInto is the gated steady-state unmarshal path: a warmed
// Decoder re-reading lookup-plane traffic must not allocate (strings
// come from the intern table, slice capacity is recycled).
func BenchmarkDecodeInto(b *testing.B) {
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = Encode(lookupMessage(20))
	}
	var d Decoder
	var m Message
	for _, p := range payloads { // warm the intern table
		if err := d.DecodeInto(&m, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodeInto(&m, payloads[i%len(payloads)]); err != nil {
			b.Fatal(err)
		}
	}
}

// summaryReplyMessage is the anti-entropy mismatch reply shape: the
// receiver's summary plus count-only entries (no Data/Author/Sig).
func summaryReplyMessage(fields int) *Message {
	m := &Message{
		Kind:    KindSummaryReply,
		From:    Contact{ID: kadid.HashString("replica"), Addr: "10.0.0.2:4100"},
		Target:  kadid.HashString("rock|3"),
		Summary: BlockSummary{Fields: uint64(fields), Digest: 0x9e3779b97f4a7c15},
	}
	for i := 0; i < fields; i++ {
		m.Entries = append(m.Entries, Entry{
			Field: fmt.Sprintf("tag-%d", i),
			Count: uint64(i*7 + 1),
		})
	}
	return m
}

// BenchmarkAppendEncodeSummary gates the anti-entropy digest-exchange
// marshal path: encoding a summary reply into a recycled buffer must
// not allocate. scripts/alloc_gate.sh holds it to alloc_budgets.txt.
func BenchmarkAppendEncodeSummary(b *testing.B) {
	m := summaryReplyMessage(32)
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], m)
	}
	if len(buf) == 0 {
		b.Fatal("empty encode")
	}
}

// BenchmarkDecodeIntoSummary gates the anti-entropy unmarshal path: a
// warmed Decoder re-reading summary replies must not allocate.
func BenchmarkDecodeIntoSummary(b *testing.B) {
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = Encode(summaryReplyMessage(32))
	}
	var d Decoder
	var m Message
	for _, p := range payloads { // warm the intern table
		if err := d.DecodeInto(&m, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodeInto(&m, payloads[i%len(payloads)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecRoundTrip is one full client-side RPC worth of codec
// work — marshal the request into a free-list buffer, unmarshal the
// response with a warmed Decoder — and must be allocation-free.
func BenchmarkCodecRoundTrip(b *testing.B) {
	req := &Message{Kind: KindFindNode, From: Contact{ID: kadid.HashString("client"), Addr: "10.9.9.9:4100"}, Target: kadid.HashString("t")}
	respBytes := Encode(lookupMessage(20))
	var d Decoder
	var resp Message
	if err := d.DecodeInto(&resp, respBytes); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := EncodePooled(req)
		if err := d.DecodeInto(&resp, respBytes); err != nil {
			b.Fatal(err)
		}
		Recycle(buf)
	}
}
