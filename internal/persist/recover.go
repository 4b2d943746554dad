package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dharma/internal/kadid"
)

// RecoveryStats describes what Open found and replayed.
type RecoveryStats struct {
	// SnapshotSeq is the snapshot the recovery started from (0 = none:
	// the full WAL was replayed).
	SnapshotSeq uint64
	// SnapshotRecords is how many block records the snapshot held.
	SnapshotRecords int
	// Segments is how many WAL segments were replayed after the
	// snapshot.
	Segments int
	// Records is how many WAL records were replayed.
	Records int
	// TruncatedBytes is how much torn tail was cut off the final
	// segment (0 on a clean shutdown).
	TruncatedBytes int64
}

func (s RecoveryStats) String() string {
	return fmt.Sprintf("snapshot %d (%d blocks) + %d segments (%d records, %d torn bytes truncated)",
		s.SnapshotSeq, s.SnapshotRecords, s.Segments, s.Records, s.TruncatedBytes)
}

// Open recovers the log under dir and readies it for appending. Every
// surviving mutation — the newest snapshot, then the WAL tail in log
// order — is handed to apply exactly once; the caller rebuilds its
// in-memory state from that stream (the kademlia store rebuilds its
// block map and incremental top-N index this way).
//
// A torn or CRC-corrupt record at the tail of the final segment is
// truncated away: it can only be a mutation that died mid-write, and
// such a mutation was never acknowledged. The same damage anywhere
// else — an earlier segment, the snapshot — is not explainable by a
// crash and refuses to open with ErrCorrupt.
func Open(dir string, opts Options, apply func(Record) error) (*Log, RecoveryStats, error) {
	opts = opts.withDefaults()
	if apply == nil {
		apply = func(Record) error { return nil }
	}
	var stats RecoveryStats
	for _, sub := range []string{walDirName, snapDirName} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, stats, fmt.Errorf("persist: %w", err)
		}
	}

	snapSeq, err := loadNewestSnapshot(dir, apply, &stats)
	if err != nil {
		return nil, stats, err
	}

	segs, err := listSeqFiles(filepath.Join(dir, walDirName), ".wal")
	if err != nil {
		return nil, stats, err
	}
	// Drop segments a snapshot already covers (normally deleted by the
	// compaction that wrote it; a crash between rename and delete
	// leaves them behind).
	live := segs[:0]
	for _, seq := range segs {
		if seq < snapSeq {
			os.Remove(segPath(dir, seq)) //nolint:errcheck // leftover cleanup
			continue
		}
		live = append(live, seq)
	}
	segs = live
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			return nil, stats, fmt.Errorf("%w: segment gap between %d and %d", ErrCorrupt, segs[i-1], segs[i])
		}
	}
	// The chain must also begin where the snapshot ends: compaction
	// creates the cut segment before the snapshot it names, so segment
	// snapSeq always exists on an undamaged log — and without a
	// snapshot the chain starts at 1. A missing boundary segment is
	// lost data, not a torn tail.
	if len(segs) > 0 {
		first := uint64(1)
		if snapSeq > 0 {
			first = snapSeq
		}
		if segs[0] != first {
			return nil, stats, fmt.Errorf("%w: first segment is %d, want %d", ErrCorrupt, segs[0], first)
		}
	} else if snapSeq > 0 {
		return nil, stats, fmt.Errorf("%w: snapshot %d has no cut segment", ErrCorrupt, snapSeq)
	}

	activeSeq := snapSeq
	if activeSeq == 0 {
		activeSeq = 1
	}
	var activeSize int64
	for i, seq := range segs {
		last := i == len(segs)-1
		size, err := replaySegment(segPath(dir, seq), last, apply, &stats)
		if err != nil {
			return nil, stats, err
		}
		stats.Segments++
		activeSeq, activeSize = seq, size
	}

	seg, err := os.OpenFile(segPath(dir, activeSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("persist: %w", err)
	}
	syncDir(filepath.Join(dir, walDirName))

	l := &Log{
		dir:         dir,
		opts:        opts,
		seg:         seg,
		segSeq:      activeSeq,
		segWritten:  activeSize,
		flushC:      make(chan struct{}, 1),
		quit:        make(chan struct{}),
		flusherDone: make(chan struct{}),
		recovered:   stats,
	}
	go l.flushLoop()
	return l, stats, nil
}

// loadNewestSnapshot applies the newest snapshot's records and returns
// its sequence number (0 when no snapshot exists). Older snapshots and
// abandoned temporaries are removed.
func loadNewestSnapshot(dir string, apply func(Record) error, stats *RecoveryStats) (uint64, error) {
	snapDir := filepath.Join(dir, snapDirName)
	// A .tmp is a compaction that died before its atomic rename; it was
	// never the snapshot of record.
	tmps, _ := filepath.Glob(filepath.Join(snapDir, "*.tmp"))
	for _, t := range tmps {
		os.Remove(t) //nolint:errcheck // leftover cleanup
	}

	snaps, err := listSeqFiles(snapDir, ".snap")
	if err != nil || len(snaps) == 0 {
		return 0, err
	}
	newest := snaps[len(snaps)-1]
	for _, seq := range snaps[:len(snaps)-1] {
		os.Remove(snapPath(dir, seq)) //nolint:errcheck // superseded
	}

	data, err := os.ReadFile(snapPath(dir, newest))
	if err != nil {
		return 0, fmt.Errorf("persist: read snapshot: %w", err)
	}
	// Whole-file integrity first, before any record is applied: a
	// snapshot truncated at a frame boundary decodes cleanly record by
	// record, so only the trailer checksum can prove the file complete.
	body, wantRecords, err := verifySnapTrailer(data)
	if err != nil {
		return 0, fmt.Errorf("%w: snapshot %d: %v", ErrCorrupt, newest, err)
	}
	var applied uint64
	for off := 0; off < len(body); {
		rec, n, err := decodeFrame(body[off:])
		if err != nil {
			// Snapshots are written whole and renamed into place; any
			// damage is corruption, not a torn write.
			return 0, fmt.Errorf("%w: snapshot %d at offset %d: %v", ErrCorrupt, newest, off, err)
		}
		if err := apply(rec); err != nil {
			return 0, fmt.Errorf("persist: apply snapshot record: %w", err)
		}
		stats.SnapshotRecords++
		applied++
		off += n
	}
	if applied != wantRecords {
		return 0, fmt.Errorf("%w: snapshot %d holds %d records, trailer promises %d",
			ErrCorrupt, newest, applied, wantRecords)
	}
	stats.SnapshotSeq = newest
	return newest, nil
}

// verifySnapTrailer checks a snapshot's whole-file trailer (magic,
// CRC-32C, record count) and returns the record bytes it covers.
func verifySnapTrailer(data []byte) (body []byte, records uint64, err error) {
	if len(data) < snapTrailerLen {
		return nil, 0, fmt.Errorf("file too short for integrity trailer (%d bytes)", len(data))
	}
	trailer := data[len(data)-snapTrailerLen:]
	if string(trailer[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("integrity trailer missing or damaged")
	}
	body = data[:len(data)-snapTrailerLen]
	want := binary.BigEndian.Uint32(trailer[len(snapMagic):])
	if got := crc32.Checksum(body, snapCRCTable); got != want {
		return nil, 0, fmt.Errorf("whole-file checksum mismatch: %08x, trailer says %08x", got, want)
	}
	return body, binary.BigEndian.Uint64(trailer[len(snapMagic)+4:]), nil
}

// replaySegment applies every record of one segment file. On the final
// segment a torn tail is truncated in place; anywhere else it is fatal.
// It returns the segment's (possibly truncated) size.
func replaySegment(path string, last bool, apply func(Record) error, stats *RecoveryStats) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("persist: read segment: %w", err)
	}
	off := 0
	for off < len(data) {
		rec, n, derr := decodeFrame(data[off:])
		if derr != nil {
			if !last {
				return 0, fmt.Errorf("%w: segment %s at offset %d: %v", ErrCorrupt, filepath.Base(path), off, derr)
			}
			torn := int64(len(data) - off)
			if err := os.Truncate(path, int64(off)); err != nil {
				return 0, fmt.Errorf("persist: truncate torn tail: %w", err)
			}
			stats.TruncatedBytes += torn
			return int64(off), nil
		}
		if err := apply(rec); err != nil {
			return 0, fmt.Errorf("persist: apply record: %w", err)
		}
		stats.Records++
		off += n
	}
	return int64(len(data)), nil
}

// listSeqFiles returns the sorted sequence numbers of dir's files with
// the given extension, ignoring anything that does not parse.
func listSeqFiles(dir, ext string) ([]uint64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var seqs []uint64
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ext) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(name, ext), "%d", &seq); err != nil || seq == 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// identityFile holds the node's persistent overlay identifier.
const identityFile = "IDENTITY"

// LoadOrCreateIdentity returns the node identifier stored under dir,
// creating it from fresh on first use — a restarted node re-enters the
// overlay as the same member, so the replica sets its blocks belong to
// stay put.
func LoadOrCreateIdentity(dir string, fresh kadid.ID) (kadid.ID, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return kadid.ID{}, fmt.Errorf("persist: %w", err)
	}
	path := filepath.Join(dir, identityFile)
	if b, err := os.ReadFile(path); err == nil {
		id, perr := kadid.Parse(strings.TrimSpace(string(b)))
		if perr != nil {
			return kadid.ID{}, fmt.Errorf("persist: identity file %s: %w", path, perr)
		}
		return id, nil
	} else if !os.IsNotExist(err) {
		return kadid.ID{}, fmt.Errorf("persist: %w", err)
	}
	// fsync + tmp + atomic rename, like the snapshot writes: the node's
	// WAL is keyed to this identity, so a half-written IDENTITY after
	// power loss would strand the blocks under an unreachable ID.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return kadid.ID{}, fmt.Errorf("persist: %w", err)
	}
	if _, err := f.WriteString(fresh.String() + "\n"); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck
		return kadid.ID{}, fmt.Errorf("persist: %w", err)
	}
	syncDir(dir)
	return fresh, nil
}
