package persist

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// BenchmarkWALAppend measures the durable append path under concurrent
// writers. The acceptance bar of group commit on default options (one
// fsync per group, shared by every writer that staged while the
// previous fsync ran or while the flusher yielded) is at least 10x the
// throughput of fsync-per-append on the same workload. The baseline is
// built here, not in the log: a benchmark-local mutex held across each
// Commit, so no two appends can ever share an fsync.
//
//	go test ./internal/persist/ -run xxx -bench WALAppend
func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []struct {
		name   string
		serial bool
	}{
		{"group-commit", false},
		{"fsync-per-append", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dir := b.TempDir()
			l, _, err := Open(dir, Options{Sync: SyncGroup, SegmentBytes: 1 << 30, CompactBytes: -1}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			key := kadid.HashString("hot")
			var serial sync.Mutex
			// Plenty of concurrent writers: group commit's win is the
			// batch that forms during the flusher's yields and the fsync
			// itself; fsync-per-append serializes the same workload.
			b.SetParallelism(256)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rec := []Record{{Op: OpAppend, Key: key, Entries: []wire.Entry{{Field: "f", Count: 1}}}}
				for pb.Next() {
					if mode.serial {
						serial.Lock()
					}
					err := l.Commit(context.Background(), rec, nil)
					if mode.serial {
						serial.Unlock()
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkWALCommitBatch measures a multi-record commit (the
// AppendBatch shape: an insertion's 2m tag-block writes in one flush).
func BenchmarkWALCommitBatch(b *testing.B) {
	dir := b.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 1 << 30, CompactBytes: -1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	recs := make([]Record, 16)
	for i := range recs {
		recs[i] = Record{
			Op:      OpAppend,
			Key:     kadid.HashString(fmt.Sprintf("k%d", i)),
			Entries: []wire.Entry{{Field: "f", Count: 1}, {Field: "g", Count: 2}},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Commit(context.Background(), recs, nil); err != nil {
			b.Fatal(err)
		}
	}
}
