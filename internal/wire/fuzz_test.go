package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode checks that no input can panic the decoder and that every
// accepted message re-encodes to a decodable equal message.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(sampleMessage()))
	f.Add(Encode(&Message{Kind: KindPing}))
	f.Add(Encode(&Message{
		Kind:    KindSummary,
		Summary: BlockSummary{Fields: 3, Digest: 0x1122334455667788},
	}))
	f.Add(Encode(&Message{
		Kind:    KindSummaryReply,
		Summary: BlockSummary{Fields: 2, Digest: 42},
		Entries: []Entry{{Field: "rock", Count: 7}, {Field: "jazz", Count: 1}},
	}))
	deadlined := sampleMessage()
	deadlined.Deadline = 250_000 // 250ms of remaining budget
	f.Add(Encode(deadlined))
	f.Add(Encode(&Message{Kind: KindUnauthorized, Err: "unauthorized: revoked"}))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(m)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode/encode not idempotent:\n%+v\n%+v", m, m2)
		}
	})
}

// FuzzEncodeDecodeEntry round-trips entries built from fuzzed fields.
func FuzzEncodeDecodeEntry(f *testing.F) {
	f.Add("tag", uint64(1), uint64(0), []byte("data"))
	f.Add("", uint64(0), uint64(1), []byte{})

	f.Fuzz(func(t *testing.T, field string, count, initV uint64, data []byte) {
		if len(field) > MaxStringLen || len(data) > MaxBlobLen {
			return
		}
		m := &Message{
			Kind:    KindStore,
			Entries: []Entry{{Field: field, Count: count, Init: initV, Data: data}},
		}
		if len(data) == 0 {
			m.Entries[0].Data = nil
		}
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", m, got)
		}
	})
}
