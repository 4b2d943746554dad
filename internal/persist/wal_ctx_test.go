package persist

import (
	"context"
	"errors"
	"testing"
	"time"

	"dharma/internal/kadid"
	"dharma/internal/wire"
)

func rec(key, field string, count uint64) Record {
	return Record{
		Op:      OpAppend,
		Key:     kadid.HashString(key),
		Entries: []wire.Entry{{Field: field, Count: count}},
	}
}

// TestCommitDeadlineBeatsStalledFlush: a committer with a 1ms deadline
// must return promptly instead of waiting out a flush that cannot run —
// while its staged record still reaches the log with the rest of the
// batch once the flush goes ahead.
func TestCommitDeadlineBeatsStalledFlush(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collect(t, dir, Options{Sync: SyncGroup})

	// Holding the file lock stalls the flusher: every commit staged from
	// here on waits for the release below.
	l.fileMu.Lock()

	// A background committer shares the stalled batch.
	bgDone := make(chan error, 1)
	go func() {
		bgDone <- l.Commit(context.Background(), []Record{rec("k", "bg", 1)}, nil)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	applied := false
	hurried := make(chan error, 1)
	go func() {
		hurried <- l.Commit(ctx, []Record{rec("k", "hurried", 2)}, func() { applied = true })
	}()
	var err error
	select {
	case err = <-hurried:
	case <-time.After(5 * time.Second):
		t.Fatal("deadline commit still waiting 5s into a stalled flush")
	}

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline commit: got %v, want DeadlineExceeded", err)
	}
	if !applied {
		t.Fatal("apply did not run: the record was staged, so the in-memory state must reflect it")
	}
	select {
	case err := <-bgDone:
		t.Fatalf("background commit returned (%v) while the flush was stalled", err)
	default:
	}
	l.fileMu.Unlock()

	// The abandoned commit must not hurt the rest of the group.
	if err := <-bgDone; err != nil {
		t.Fatalf("background commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Both records — including the abandoned committer's — are in the log.
	got, _, l2 := collect(t, dir, Options{Sync: SyncNone})
	defer l2.Close()
	fields := map[string]bool{}
	for _, r := range got {
		for _, e := range r.Entries {
			fields[e.Field] = true
		}
	}
	if !fields["bg"] || !fields["hurried"] {
		t.Fatalf("replayed fields %v; want both bg and hurried (staged records must land)", fields)
	}
}

// TestCommitRefusesDeadContext: a ctx that is already over refuses the
// commit before staging anything — nothing lands, apply never runs.
func TestCommitRefusesDeadContext(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collect(t, dir, Options{Sync: SyncNone})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := l.Commit(ctx, []Record{rec("k", "never", 1)}, func() {
		t.Error("apply ran under a dead context")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want Canceled", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, _, l2 := collect(t, dir, Options{Sync: SyncNone})
	defer l2.Close()
	if len(got) != 0 {
		t.Fatalf("replayed %d records, want 0", len(got))
	}
}
