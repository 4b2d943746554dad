package core_test

import (
	"strconv"
	"strings"
	"testing"

	"dharma/internal/core"
	"dharma/internal/kadid"
)

// TestBlockKeyPinned pins BlockKey to SHA-1(name ‖ "|" ‖ type) byte for
// byte, for names that are empty, contain the separator, are multibyte,
// and are longer than the stack buffer the key is hashed from — and
// checks that none of them allocates.
func TestBlockKeyPinned(t *testing.T) {
	cases := []struct {
		name string
		bt   core.BlockType
	}{
		{"", core.BlockResourceTags},
		{"a|b", core.BlockTagNeighbors},
		{"músíca-ロック-音楽", core.BlockTagResources},
		{strings.Repeat("long-name", 34)[:300], core.BlockResourceURI},
	}
	for _, c := range cases {
		want := kadid.HashString(c.name + "|" + strconv.Itoa(int(c.bt)))
		if got := core.BlockKey(c.name, c.bt); got != want {
			t.Errorf("BlockKey(%q, %d) = %s, want %s", c.name, c.bt, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { keySink = core.BlockKey(c.name, c.bt) }); allocs != 0 {
			t.Errorf("BlockKey(%d-byte name): %v allocs per run, want 0", len(c.name), allocs)
		}
	}
}

var keySink kadid.ID

// BenchmarkBlockKey measures the key derivation every block operation
// of Table I starts with.
func BenchmarkBlockKey(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		keySink = core.BlockKey("indie-rock", core.BlockTagNeighbors)
	}
}
