package persist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// collect opens the log under dir and returns every replayed record in
// order, plus the stats and the ready log.
func collect(t *testing.T, dir string, opts Options) ([]Record, RecoveryStats, *Log) {
	t.Helper()
	var got []Record
	l, stats, err := Open(dir, opts, func(rec Record) error {
		got = append(got, cloneRecord(rec))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return got, stats, l
}

func cloneRecord(rec Record) Record {
	return Record{Op: rec.Op, Key: rec.Key, Entries: wire.CloneEntries(rec.Entries)}
}

// randomRecords draws a reproducible mutation sequence.
func randomRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		op := OpAppend
		if rng.Intn(3) == 0 {
			op = OpMergeMax
		}
		entries := make([]wire.Entry, 1+rng.Intn(4))
		for j := range entries {
			entries[j] = wire.Entry{
				Field: fmt.Sprintf("f%d", rng.Intn(10)),
				Count: uint64(rng.Intn(100)),
				Init:  uint64(rng.Intn(3)),
			}
			if rng.Intn(4) == 0 {
				entries[j].Data = []byte(fmt.Sprintf("uri-%d", rng.Intn(100)))
			}
		}
		recs[i] = Record{
			Op:      op,
			Key:     kadid.HashString(fmt.Sprintf("k%d", rng.Intn(8))),
			Entries: entries,
		}
	}
	return recs
}

func recordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collect(t, dir, Options{Sync: SyncNone})
	recs := randomRecords(rand.New(rand.NewSource(1)), 50)
	for i := range recs {
		if err := l.Commit(context.Background(), []Record{recs[i]}, nil); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, stats, l2 := collect(t, dir, Options{Sync: SyncNone})
	defer l2.Close()
	recordsEqual(t, got, recs)
	if stats.TruncatedBytes != 0 {
		t.Fatalf("clean shutdown truncated %d bytes", stats.TruncatedBytes)
	}
	if stats.Records != len(recs) {
		t.Fatalf("stats.Records = %d, want %d", stats.Records, len(recs))
	}
}

func TestCommitAfterCloseAndCrash(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collect(t, dir, Options{Sync: SyncNone})
	l.Close()
	if err := l.Commit(context.Background(), []Record{{Op: OpAppend, Key: kadid.HashString("k"), Entries: []wire.Entry{{Field: "f"}}}}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v, want ErrClosed", err)
	}

	_, _, l2 := collect(t, dir, Options{Sync: SyncNone})
	l2.Crash()
	if err := l2.Commit(context.Background(), []Record{{Op: OpAppend, Key: kadid.HashString("k"), Entries: []wire.Entry{{Field: "f"}}}}, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("commit after crash: %v, want ErrCrashed", err)
	}
}

// TestAcknowledgedSurvivesCrash is the durability contract: every
// Commit that returned nil is on disk after a simulated SIGKILL.
func TestAcknowledgedSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collect(t, dir, Options{Sync: SyncNone})
	recs := randomRecords(rand.New(rand.NewSource(7)), 100)
	for i := range recs {
		if err := l.Commit(context.Background(), []Record{recs[i]}, nil); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	l.Crash()

	got, _, l2 := collect(t, dir, Options{Sync: SyncNone})
	defer l2.Close()
	recordsEqual(t, got, recs)
}

// TestGroupCommitConcurrent drives many committers through the shared
// flusher and checks nothing is lost or duplicated.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collect(t, dir, Options{Sync: SyncNone})
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := Record{
					Op:      OpAppend,
					Key:     kadid.HashString(fmt.Sprintf("w%d", w)),
					Entries: []wire.Entry{{Field: fmt.Sprintf("f%d", i), Count: 1}},
				}
				if err := l.Commit(context.Background(), []Record{rec}, nil); err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, _, l2 := collect(t, dir, Options{Sync: SyncNone})
	defer l2.Close()
	if len(got) != workers*each {
		t.Fatalf("replayed %d records, want %d", len(got), workers*each)
	}
	seen := make(map[string]bool)
	for _, rec := range got {
		k := rec.Key.String() + "/" + rec.Entries[0].Field
		if seen[k] {
			t.Fatalf("record %s duplicated", k)
		}
		seen[k] = true
	}
}

// TestCrashPointRecovery is the crash-point property test of the
// ISSUE: the WAL is killed at every record boundary and at several
// mid-record positions of a randomized append sequence, and replay
// must equal exactly the prefix of fully persisted records.
func TestCrashPointRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recs := randomRecords(rng, 40)

	// Deterministic expected image: the framed concatenation.
	var want []byte
	boundaries := []int{0}
	for i := range recs {
		var err error
		if want, err = appendFrames(want, &recs[i]); err != nil {
			t.Fatalf("encode: %v", err)
		}
		boundaries = append(boundaries, len(want))
	}

	dir := t.TempDir()
	// Sequential commits each wait for their own flush, so the on-disk
	// image matches the deterministic concatenation.
	_, _, l := collect(t, dir, Options{Sync: SyncGroup, SegmentBytes: 1 << 30})
	for i := range recs {
		if err := l.Commit(context.Background(), []Record{recs[i]}, nil); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	l.Close()

	seg := segPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data, want) {
		t.Fatalf("segment bytes differ from deterministic encoding (%d vs %d bytes)", len(data), len(want))
	}

	// Every boundary, plus cuts inside the header and inside the
	// payload of the record that follows it.
	cuts := make(map[int]bool)
	for i, b := range boundaries {
		cuts[b] = true
		if i < len(recs) {
			width := boundaries[i+1] - b
			for _, off := range []int{3, 8, width - 1} {
				if off > 0 && off < width {
					cuts[b+off] = true
				}
			}
		}
	}

	for cut := range cuts {
		// The model: records whose frames are fully inside the prefix.
		complete := 0
		for complete < len(recs) && boundaries[complete+1] <= cut {
			complete++
		}

		sub := t.TempDir()
		if err := os.MkdirAll(filepath.Join(sub, walDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(sub, 1), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		got, stats, l := collect(t, sub, Options{Sync: SyncNone})
		recordsEqual(t, got, recs[:complete])
		wantTorn := int64(cut - boundaries[complete])
		if stats.TruncatedBytes != wantTorn {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, stats.TruncatedBytes, wantTorn)
		}

		// The truncated log must keep working: append one more record
		// and recover it on the next open.
		extra := Record{Op: OpAppend, Key: kadid.HashString("extra"), Entries: []wire.Entry{{Field: "x", Count: 9}}}
		if err := l.Commit(context.Background(), []Record{extra}, nil); err != nil {
			t.Fatalf("cut %d: commit after truncation: %v", cut, err)
		}
		l.Close()
		got2, _, l2 := collect(t, sub, Options{Sync: SyncNone})
		recordsEqual(t, got2, append(append([]Record(nil), recs[:complete]...), extra))
		l2.Close()
	}
}

// TestOversizedRecordChunksByBytes: a mutation whose encoded size
// exceeds the per-record payload bound must be split across several
// frames on the way in — and come back intact, never tripping the
// read-side record size cap.
func TestOversizedRecordChunksByBytes(t *testing.T) {
	blob := make([]byte, 60<<10)
	for i := range blob {
		blob[i] = byte(i)
	}
	entries := make([]wire.Entry, 120) // ~7 MiB encoded, bound is 4 MiB
	for i := range entries {
		entries[i] = wire.Entry{Field: fmt.Sprintf("f%03d", i), Count: 1, Data: blob}
	}
	rec := Record{Op: OpAppend, Key: kadid.HashString("big"), Entries: entries}

	frames, err := appendFrames(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	var got []wire.Entry
	nFrames := 0
	for off := 0; off < len(frames); {
		r, n, err := decodeFrame(frames[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", nFrames, err)
		}
		if int64(n) > maxRecordPayload+8+1024 {
			t.Fatalf("frame %d is %d bytes, beyond the payload bound", nFrames, n)
		}
		if r.Op != rec.Op || r.Key != rec.Key {
			t.Fatalf("frame %d changed op/key", nFrames)
		}
		got = append(got, r.Entries...)
		off += n
		nFrames++
	}
	if nFrames < 2 {
		t.Fatalf("oversized record produced %d frame(s), want a split", nFrames)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatal("reassembled entries differ from the original")
	}

	// End to end: the same record commits and recovers through a log.
	dir := t.TempDir()
	_, _, l := collect(t, dir, Options{Sync: SyncNone})
	if err := l.Commit(context.Background(), []Record{rec}, nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	replayed, _, l2 := collect(t, dir, Options{Sync: SyncNone})
	defer l2.Close()
	var back []wire.Entry
	for _, r := range replayed {
		back = append(back, r.Entries...)
	}
	if !reflect.DeepEqual(back, entries) {
		t.Fatal("recovered entries differ from the committed ones")
	}
}

// TestBoundarySegmentGapRefusesToOpen: losing the segment the chain
// must start at — the snapshot's cut segment, or segment 1 when there
// is no snapshot — is data loss, not a torn tail.
func TestBoundarySegmentGapRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collect(t, dir, Options{Sync: SyncGroup, SegmentBytes: 64})
	for _, rec := range randomRecords(rand.New(rand.NewSource(11)), 12) {
		if err := l.Commit(context.Background(), []Record{rec}, nil); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// No snapshot: the chain must start at segment 1.
	if err := os.Remove(segPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Sync: SyncNone}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with missing first segment: %v, want ErrCorrupt", err)
	}

	// With a snapshot: the cut segment must exist.
	dir2 := t.TempDir()
	_, _, l2 := collect(t, dir2, Options{Sync: SyncNone})
	if err := l2.Commit(context.Background(), []Record{{Op: OpAppend, Key: kadid.HashString("k"), Entries: []wire.Entry{{Field: "f", Count: 1}}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.Compact(func(add func(Record) error) error {
		return add(Record{Op: OpMergeMax, Key: kadid.HashString("k"), Entries: []wire.Entry{{Field: "f", Count: 1}}})
	}); err != nil {
		t.Fatal(err)
	}
	cut := l2.ActiveSegment()
	l2.Close()
	if err := os.Remove(segPath(dir2, cut)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir2, Options{Sync: SyncNone}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with missing cut segment: %v, want ErrCorrupt", err)
	}
}

func TestCorruptMiddleSegmentRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation: every flush that ends >= 64 bytes
	// rolls, and sequential commits flush one record each, so the log
	// spans several files.
	_, _, l := collect(t, dir, Options{Sync: SyncGroup, SegmentBytes: 64})
	recs := randomRecords(rand.New(rand.NewSource(3)), 30)
	for i := range recs {
		if err := l.Commit(context.Background(), []Record{recs[i]}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if l.ActiveSegment() < 3 {
		t.Fatalf("expected several segments, active is %d", l.ActiveSegment())
	}
	l.Close()

	// Sanity: intact multi-segment recovery replays everything.
	got, stats, l2 := collect(t, dir, Options{Sync: SyncNone})
	recordsEqual(t, got, recs)
	if stats.Segments < 3 {
		t.Fatalf("replayed %d segments, want several", stats.Segments)
	}
	l2.Close()

	// Flip one payload byte in the FIRST segment: that is not a torn
	// tail, it is corruption, and recovery must refuse.
	seg1 := segPath(dir, 1)
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0xff
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{Sync: SyncNone}, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with corrupt middle segment: %v, want ErrCorrupt", err)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collect(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	recs := randomRecords(rand.New(rand.NewSource(5)), 25)
	for i := range recs {
		if err := l.Commit(context.Background(), []Record{recs[i]}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// The embedder's "state" for this test: pretend the whole history
	// compacts to two records.
	snapRecs := []Record{
		{Op: OpMergeMax, Key: kadid.HashString("s1"), Entries: []wire.Entry{{Field: "a", Count: 10}}},
		{Op: OpMergeMax, Key: kadid.HashString("s2"), Entries: []wire.Entry{{Field: "b", Count: 20}}},
	}
	if err := l.Compact(func(add func(Record) error) error {
		for _, r := range snapRecs {
			if err := add(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := l.BytesSinceCompact(); got != 0 {
		t.Fatalf("BytesSinceCompact after compaction = %d", got)
	}

	// Old segments are gone; only the fresh cut segment remains.
	segs, err := listSeqFiles(filepath.Join(dir, walDirName), ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != l.ActiveSegment() {
		t.Fatalf("segments after compaction: %v (active %d)", segs, l.ActiveSegment())
	}

	// Post-compaction commits land in the tail.
	tail := randomRecords(rand.New(rand.NewSource(6)), 5)
	for i := range tail {
		if err := l.Commit(context.Background(), []Record{tail[i]}, nil); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	got, stats, l2 := collect(t, dir, Options{Sync: SyncNone})
	defer l2.Close()
	recordsEqual(t, got, append(append([]Record(nil), snapRecs...), tail...))
	if stats.SnapshotSeq == 0 || stats.SnapshotRecords != len(snapRecs) {
		t.Fatalf("stats = %+v, want snapshot with %d records", stats, len(snapRecs))
	}
}

func TestCompactionConcurrentWithCommits(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collect(t, dir, Options{Sync: SyncNone})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var committed atomic64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := Record{Op: OpAppend, Key: kadid.HashString("k"), Entries: []wire.Entry{{Field: fmt.Sprintf("f%d", i), Count: 1}}}
			if err := l.Commit(context.Background(), []Record{rec}, nil); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			committed.add(1)
		}
	}()
	for i := 0; i < 5; i++ {
		if err := l.Compact(func(add func(Record) error) error { return nil }); err != nil {
			t.Fatalf("Compact %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	l.Close()
	// Recovery still reads a consistent tail (the empty snapshots
	// discarded the history, which is the embedder's choice here).
	_, _, l2 := collect(t, dir, Options{Sync: SyncNone})
	l2.Close()
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }

func TestIdentityPersistence(t *testing.T) {
	dir := t.TempDir()
	fresh := kadid.HashString("me")
	id, err := LoadOrCreateIdentity(dir, fresh)
	if err != nil || id != fresh {
		t.Fatalf("first load: %v %v", id, err)
	}
	other := kadid.HashString("other")
	id2, err := LoadOrCreateIdentity(dir, other)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != fresh {
		t.Fatalf("restart minted a new identity: %s != %s", id2, fresh)
	}
	if err := os.WriteFile(filepath.Join(dir, identityFile), []byte("not-hex"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrCreateIdentity(dir, fresh); err == nil {
		t.Fatal("corrupt identity file accepted")
	}
}

// FuzzWALDecode throws arbitrary bytes at the record decoder: it must
// never panic, and anything it accepts must re-encode and re-decode to
// the same record.
func FuzzWALDecode(f *testing.F) {
	valid, err := appendFrames(nil, &Record{
		Op:  OpAppend,
		Key: kadid.HashString("seed"),
		Entries: []wire.Entry{
			{Field: "f", Count: 3, Init: 1, Data: []byte("uri"), Author: []byte("a"), Sig: []byte("s")},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:4])
	f.Add([]byte{})
	two, _ := appendFrames(valid, &Record{Op: OpMergeMax, Key: kadid.HashString("x"), Entries: []wire.Entry{{Field: "g"}}})
	f.Add(two)

	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for off < len(data) {
			rec, n, err := decodeFrame(data[off:])
			if err != nil {
				return
			}
			if n <= 0 {
				t.Fatalf("accepted frame of %d bytes", n)
			}
			re, err := appendFrames(nil, &rec)
			if err != nil {
				t.Fatalf("re-encode of accepted record: %v", err)
			}
			rec2, _, err := decodeFrame(re)
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if !reflect.DeepEqual(rec, rec2) {
				t.Fatalf("round trip changed record:\n was %+v\n now %+v", rec, rec2)
			}
			off += n
		}
	})
}
