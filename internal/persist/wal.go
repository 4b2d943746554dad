// Package persist gives a DHARMA node durable block storage: a
// segmented append-only write-ahead log plus periodic snapshot-and-
// truncate compaction, so a node's t̂/r̂ blocks outlive its process.
//
// The paper's availability argument (and the churn machinery of the
// overlay — anti-entropy, graceful handoff) assumes replicas
// re-enter the overlay with their state. An in-memory store only
// simulates that: the node object survives because nothing ever kills
// the process. This package crosses the line to a deployable node: a
// mutation is logged (and, by default, fsynced) before it is
// acknowledged, a restart replays snapshot + WAL tail back into the
// in-memory store, and a torn or corrupt tail record — the signature of
// dying mid-write — is detected by CRC and truncated away instead of
// poisoning the node.
//
// # Log format
//
// A record is one framed block mutation:
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// The payload reuses the internal/wire codec: it is a wire.Message
// whose Kind encodes the operation (KindStore → append semantics,
// KindReplicate → max-merge semantics), Target the block key, and
// Entries the mutation body. Records live in numbered segment files
// (wal/%016d.wal); when the active segment exceeds SegmentBytes the log
// rolls to the next number. A snapshot (snap/%016d.snap, same record
// framing, max-merge records only) covers every segment numbered below
// it; compaction writes one atomically (tmp + rename) and deletes the
// covered segments.
//
// # Group commit
//
// Commit batches are the fsync amortization: an appender stages its
// records in an in-memory buffer and blocks; a dedicated flusher writes
// and fsyncs the whole buffer at once, so every appender that arrived
// while the previous fsync was in flight shares the next one. Before a
// flush the flusher yields its thread for as long as each yield lets
// another committer stage (see coalesce), so committers that are
// already runnable share the fsync while a lone commit pays only its
// write and fsync. Under concurrent load this sustains one fsync per
// group rather than one per append.
package persist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/obs"
	"dharma/internal/wire"
)

// Op is a logged mutation's merge rule.
type Op uint8

// Logged operations, mirroring the two mutation paths of the block
// store: Append is the "+1 token" add (Approximation B create-or-add),
// MergeMax the idempotent replica merge.
const (
	OpAppend   Op = 1
	OpMergeMax Op = 2
)

// Record is one logged block mutation.
type Record struct {
	Op      Op
	Key     kadid.ID
	Entries []wire.Entry
}

// SyncMode selects when the log calls fsync.
type SyncMode int

const (
	// SyncGroup (the default) fsyncs once per group-commit flush:
	// everyone who committed during the previous fsync rides the next
	// one. Acknowledged writes survive power loss.
	SyncGroup SyncMode = iota
	// SyncNone never fsyncs. Acknowledged writes are written to the OS
	// before the ack, so they survive a process kill (SIGKILL), but not
	// power loss. Tests and simulated clusters use this mode.
	SyncNone
)

// Options parameterises a log.
type Options struct {
	// SegmentBytes is the size at which the active segment is rolled
	// (default 8 MiB).
	SegmentBytes int64
	// Sync selects the fsync policy (default SyncGroup).
	Sync SyncMode
	// CompactBytes is the number of logged bytes after which the
	// embedding layer should snapshot-and-truncate. The Log itself
	// never compacts spontaneously — it has no access to the state to
	// snapshot — it only counts; kademlia's durable store watches
	// BytesSinceCompact against this threshold (default 64 MiB,
	// negative disables automatic compaction).
	CompactBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 64 << 20
	}
	return o
}

// Errors of the log lifecycle.
var (
	// ErrClosed is returned by commits after a clean Close.
	ErrClosed = errors.New("persist: log closed")
	// ErrCrashed is returned by commits after Crash — including commits
	// that were staged but not yet flushed when the crash hit: their
	// writers never got an acknowledgement, which is exactly the
	// durability contract (unacknowledged writes may die).
	ErrCrashed = errors.New("persist: log crashed")
	// ErrCorrupt wraps recovery failures outside the replayable tail: a
	// CRC mismatch in a non-final segment or an unreadable snapshot is
	// real corruption, not a torn write, and refuses to open.
	ErrCorrupt = errors.New("persist: corrupt log")
)

// maxRecordBytes bounds a single record's payload so a corrupt length
// prefix cannot make recovery allocate unbounded memory.
const maxRecordBytes = 64 << 20

// maxEntriesPerRecord chunks oversized mutations: the wire codec bounds
// Entries at wire.MaxListLen, and both logged operations distribute
// over a split of their entry list, so a huge block (a hot tag's 100k+
// arcs at snapshot time) is logged as several records under one key.
const maxEntriesPerRecord = wire.MaxListLen

// maxRecordPayload is the write-side byte bound per record: chunking
// must cap encoded size as well as entry count, or a block heavy with
// Data blobs could produce an acknowledged record that recovery (which
// enforces maxRecordBytes) would reject as corrupt. Kept far below the
// read-side cap so the two can never disagree.
const maxRecordPayload = 4 << 20

// Log is a segmented write-ahead log with group commit.
type Log struct {
	dir       string
	opts      Options
	recovered RecoveryStats // what Open replayed; fixed after Open

	// mu is the commit lock: it guards the staging buffer, the pending
	// batch, and — through Commit's apply callback — the in-memory
	// state's synchronization with the log. Compaction freezes writers
	// by holding it, which is what makes the snapshot an exact cut.
	mu     sync.Mutex
	buf    []byte
	batch  *flushBatch
	closed bool
	err    error // sticky: first write/sync failure poisons the log

	// fileMu serializes file operations (flush, rotation, compaction).
	// Lock order: fileMu before mu, never the reverse.
	fileMu     sync.Mutex
	seg        *os.File
	segSeq     uint64
	segWritten int64 // bytes in the active segment, fileMu-guarded

	sinceCompact atomic.Int64  // bytes logged since the last compaction
	staged       atomic.Uint64 // commits staged so far; coalesce watches it

	flushC      chan struct{}
	quit        chan struct{}
	flusherDone chan struct{}

	// Instruments, fileMu-guarded; nil-safe no-ops until Instrument.
	fsyncLatency *obs.Histogram
	flushBytes   *obs.Counter
	flushes      *obs.Counter
	rotations    *obs.Counter
}

// Instrument registers the log's instruments on reg: an fsync latency
// histogram plus flush accounting. fsync is the tail-latency budget of
// every durable write, so it is the one disk number the ops endpoint
// must be able to answer for. Safe to call on a live log.
func (l *Log) Instrument(reg *obs.Registry) {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	l.fsyncLatency = reg.Histogram("dharma_wal_fsync_seconds",
		"Time one WAL fsync took; every durable write's tail-latency floor.")
	l.flushBytes = reg.Counter("dharma_wal_flush_bytes_total",
		"Bytes written by group-commit flushes.")
	l.flushes = reg.Counter("dharma_wal_flushes_total",
		"Group-commit flushes (one write + at most one fsync each).")
	l.rotations = reg.Counter("dharma_wal_segment_rotations_total",
		"Active-segment rollovers.")
	reg.GaugeFunc("dharma_wal_bytes_since_compact",
		"Bytes logged since the last compaction.", l.sinceCompact.Load)
}

// flushBatch is one group of commits waiting on the same flush.
type flushBatch struct {
	done chan struct{}
	err  error
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// opKind maps a logged operation onto the wire message kind that
// carries it, so the record payload is a plain wire.Message.
func opKind(op Op) (wire.Kind, error) {
	switch op {
	case OpAppend:
		return wire.KindStore, nil
	case OpMergeMax:
		return wire.KindReplicate, nil
	default:
		return 0, fmt.Errorf("persist: unknown op %d", op)
	}
}

func kindOp(k wire.Kind) (Op, error) {
	switch k {
	case wire.KindStore:
		return OpAppend, nil
	case wire.KindReplicate:
		return OpMergeMax, nil
	default:
		return 0, fmt.Errorf("persist: record carries non-mutation kind %v", k)
	}
}

// appendFrames encodes rec into dst as one or more framed records
// (chunking entry lists beyond the codec's bound) and returns dst. Each
// payload is encoded in place behind its header, which is filled in
// once the payload's length and CRC are known.
func appendFrames(dst []byte, rec *Record) ([]byte, error) {
	kind, err := opKind(rec.Op)
	if err != nil {
		return dst, err
	}
	entries := rec.Entries
	for first := true; first || len(entries) > 0; first = false {
		var chunk []wire.Entry
		chunk, entries = splitChunk(entries)
		hdr := len(dst)
		dst = wire.AppendEncode(append(dst, make([]byte, 8)...), &wire.Message{Kind: kind, Target: rec.Key, Entries: chunk})
		payload := dst[hdr+8:]
		binary.LittleEndian.PutUint32(dst[hdr:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(dst[hdr+4:], crc32.Checksum(payload, crcTable))
	}
	return dst, nil
}

// splitChunk takes the longest entry prefix within both the codec's
// list bound and the record payload byte bound (estimated; the fixed
// per-entry overhead is generous). A single entry always fits: the
// codec caps its strings and blobs two orders of magnitude below
// maxRecordPayload.
func splitChunk(entries []wire.Entry) (chunk, rest []wire.Entry) {
	n, size := 0, 0
	for n < len(entries) && n < maxEntriesPerRecord {
		e := &entries[n]
		size += len(e.Field) + len(e.Data) + len(e.Author) + len(e.Sig) + 32
		if size > maxRecordPayload && n > 0 {
			break
		}
		n++
	}
	return entries[:n], entries[n:]
}

// decodeFrame parses the first framed record in b. It returns the
// record and the total frame length consumed. Any failure — short
// header, oversized length, short payload, CRC mismatch, undecodable
// payload — reports errTorn with the reason; the caller decides whether
// the position makes it a truncatable tail or hard corruption.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < 8 {
		return Record{}, 0, fmt.Errorf("%w: short header (%d bytes)", errTorn, len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if n > maxRecordBytes {
		return Record{}, 0, fmt.Errorf("%w: record of %d bytes", errTorn, n)
	}
	if len(b) < 8+int(n) {
		return Record{}, 0, fmt.Errorf("%w: short payload (%d of %d bytes)", errTorn, len(b)-8, n)
	}
	payload := b[8 : 8+int(n)]
	if crc32.Checksum(payload, crcTable) != sum {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", errTorn)
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		return Record{}, 0, fmt.Errorf("%w: %v", errTorn, err)
	}
	op, err := kindOp(msg.Kind)
	if err != nil {
		return Record{}, 0, fmt.Errorf("%w: %v", errTorn, err)
	}
	return Record{Op: op, Key: msg.Target, Entries: msg.Entries}, 8 + int(n), nil
}

// errTorn marks a record that could not be read in full.
var errTorn = errors.New("torn record")

// Commit durably logs recs, then — with the records staged and the
// commit lock still held — runs apply (the in-memory application), and
// finally blocks until the staged bytes are flushed per the sync
// policy. It returns nil only once the records are as durable as the
// policy promises; a non-nil return means the write was NOT
// acknowledged and the in-memory state may be ahead of the log (the
// caller's node is expected to treat that as fatal for the operation
// and withhold its ack).
//
// ctx bounds only the WAIT for durability, never the batch itself: a
// ctx that ends before staging refuses the commit outright (nothing
// staged, nothing applied); a ctx that ends while waiting for the
// flush returns ctx.Err() immediately, but the staged records remain
// in the batch and the group still fsyncs on schedule for every other
// committer. The outcome of such an abandoned commit is unknown to the
// caller — exactly the semantics of a write whose ack was lost — so
// the caller must not acknowledge it. This is what keeps a cancelled
// write from pinning a storage handler behind a slow fsync.
//
// Running apply under the commit lock is what keeps the snapshot exact:
// compaction also takes the lock, so the in-memory state it dumps
// corresponds to precisely the records logged before the cut — replay
// after recovery applies every surviving record exactly once, and
// append counts (which are sums, not maxima) come back exact.
func (l *Log) Commit(ctx context.Context, recs []Record, apply func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// The frames are staged in a free-list buffer: it becomes the batch
	// buffer when it opens the batch (flushOnce recycles that once
	// written) and is recycled here otherwise.
	frames := wire.Borrow(0)
	var err error
	for i := range recs {
		if frames, err = appendFrames(frames, &recs[i]); err != nil {
			wire.Recycle(frames)
			return err
		}
	}

	l.mu.Lock()
	if l.closed || l.err != nil {
		defer l.mu.Unlock()
		wire.Recycle(frames)
		if l.err != nil {
			return l.err
		}
		return ErrClosed
	}
	if l.buf == nil {
		l.buf = frames
	} else {
		l.buf = append(l.buf, frames...)
		wire.Recycle(frames)
	}
	if l.batch == nil {
		l.batch = &flushBatch{done: make(chan struct{})}
	}
	b := l.batch
	l.sinceCompact.Add(int64(len(frames)))
	l.staged.Add(1)
	if apply != nil {
		apply()
	}
	l.mu.Unlock()

	select {
	case l.flushC <- struct{}{}:
	default: // a flush signal is already pending
	}
	select {
	case <-b.done:
		return b.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flushLoop is the group-commit flusher: it drains the staging buffer
// whenever signaled, one write (+ fsync) per accumulated batch.
func (l *Log) flushLoop() {
	defer close(l.flusherDone)
	for {
		select {
		case <-l.flushC:
			if l.opts.Sync == SyncGroup {
				l.coalesce()
			}
			l.flushOnce()
		case <-l.quit:
			return
		}
	}
}

// maxCoalesceYields bounds coalesce, so a steady stream of committers
// cannot hold a flush back.
const maxCoalesceYields = 64

// coalesce is SyncGroup's linger, and it sets no timer: the flusher
// yields its thread and keeps yielding while its yields let other
// committers stage. Committers that are already runnable (the STOREs of
// one AppendBatch landing on this replica) join the pending batch and
// share its fsync; a lone committer costs two yields. It stops after
// two idle yields in a row, not one, because a yield can hand the
// thread straight back: Gosched parks the flusher on the global run
// queue, which the scheduler serves ahead of the local one on every
// 61st tick. A sleep would cost far more than the fsync it amortizes:
// below a millisecond the runtime's idle timer wait rounds up to about
// 1ms.
func (l *Log) coalesce() {
	seen, idle := l.staged.Load(), 0
	for range maxCoalesceYields {
		runtime.Gosched()
		now := l.staged.Load()
		if now != seen {
			seen, idle = now, 0
		} else if idle++; idle == 2 {
			return
		}
	}
}

// flushOnce writes the staged buffer to the active segment, completes
// its batch, and rolls the segment if it outgrew SegmentBytes.
func (l *Log) flushOnce() {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()

	l.mu.Lock()
	buf, b := l.buf, l.batch
	l.buf, l.batch = nil, nil
	seg := l.seg
	l.mu.Unlock()
	if b == nil {
		return
	}

	err := l.writeOut(seg, buf)
	wire.Recycle(buf)
	if err != nil {
		l.poison(err)
	}
	b.err = err
	close(b.done)

	if err == nil && l.segWritten >= l.opts.SegmentBytes {
		if rerr := l.rotate(); rerr != nil {
			l.poison(rerr)
		}
	}
}

// writeOut appends buf to seg and syncs per policy; fileMu must be held.
func (l *Log) writeOut(seg *os.File, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	if _, err := seg.Write(buf); err != nil {
		return err
	}
	l.segWritten += int64(len(buf))
	l.flushes.Inc()
	l.flushBytes.Add(int64(len(buf)))
	if l.opts.Sync != SyncNone {
		start := time.Now()
		err := seg.Sync()
		l.fsyncLatency.Observe(time.Since(start))
		return err
	}
	return nil
}

// rotate closes the active segment and opens the next one; fileMu must
// be held.
func (l *Log) rotate() error {
	next, err := createSegment(l.dir, l.segSeq+1)
	if err != nil {
		return err
	}
	l.mu.Lock()
	old := l.seg
	l.seg = next
	l.segSeq++
	l.mu.Unlock()
	l.segWritten = 0
	l.rotations.Inc()
	return old.Close()
}

// poison records the first file-level failure; every later commit is
// refused with it (a log that cannot persist must stop acknowledging).
func (l *Log) poison(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// segPath names segment seq.
func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, walDirName, fmt.Sprintf("%016d.wal", seq))
}

// snapPath names the snapshot covering segments below seq.
func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, snapDirName, fmt.Sprintf("%016d.snap", seq))
}

const (
	walDirName  = "wal"
	snapDirName = "snap"
)

func createSegment(dir string, seq uint64) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	syncDir(filepath.Join(dir, walDirName))
	return f, nil
}

// syncDir fsyncs a directory so entry creation/removal survives power
// loss; best-effort (some filesystems refuse directory fsync).
func syncDir(path string) {
	d, err := os.Open(path)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // best-effort
	d.Close()
}

// BytesSinceCompact reports how many record bytes were logged since the
// last compaction (or open) — the embedding layer's compaction trigger.
func (l *Log) BytesSinceCompact() int64 { return l.sinceCompact.Load() }

// Options returns the log's effective options (defaults applied).
func (l *Log) Options() Options { return l.opts }

// Recovery reports what Open found and replayed to build this log.
func (l *Log) Recovery() RecoveryStats { return l.recovered }

// ActiveSegment reports the active segment's sequence number (tests and
// stats).
func (l *Log) ActiveSegment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segSeq
}

// Close flushes every staged record and cleanly shuts the log down.
// Further commits return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	close(l.quit)
	<-l.flusherDone
	l.flushOnce() // drain what the flusher did not get to

	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	l.mu.Lock()
	err := l.err
	seg := l.seg
	l.mu.Unlock()
	if cerr := seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates the process dying (SIGKILL): the staged-but-unflushed
// buffer is dropped — its writers are woken with ErrCrashed, never
// having been acknowledged — and the file handles close without a final
// flush. Everything already written (acknowledged) stays on disk,
// which is exactly what the OS guarantees a killed process: page-cache
// writes survive, user-space buffers do not. Tests and the simulated
// cluster's Crash use this to model a real node death in-process.
func (l *Log) Crash() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.err = ErrCrashed
	l.mu.Unlock()

	// Stop the flusher before touching files: it may be mid-flush and
	// needs fileMu. A flush racing the crash is legitimate — it models
	// the kill landing just after the OS accepted the write.
	close(l.quit)
	<-l.flusherDone

	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	l.mu.Lock()
	b := l.batch
	l.buf, l.batch = nil, nil
	seg := l.seg
	l.mu.Unlock()
	if b != nil {
		b.err = ErrCrashed
		close(b.done)
	}
	seg.Close() //nolint:errcheck // a crashed process does not check errors
}
