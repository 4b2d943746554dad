package persist

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dharma/internal/obs"
)

// TestLoneCommitPaysNoTimer: under default options a commit with no
// company is acknowledged after its write and fsync, not after a
// timer. Commits run one at a time, so each takes exactly one fsync,
// read off the fsync histogram's running sum; the median of Commit
// latency less that fsync stays under 250µs. A sleep anywhere in the
// flush path (the runtime rounds a short one up to about 1ms) breaks
// it.
func TestLoneCommitPaysNoTimer(t *testing.T) {
	reg := obs.NewRegistry()
	_, _, l := collect(t, t.TempDir(), Options{})
	defer l.Close()
	l.Instrument(reg)
	fsync := reg.Histogram("dharma_wal_fsync_seconds", "")

	const n = 20
	over := make([]time.Duration, n)
	for i := range over {
		synced := fsync.Sum()
		start := time.Now()
		if err := l.Commit(context.Background(), []Record{rec("k", "f", 1)}, nil); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		over[i] = time.Since(start) - time.Duration(fsync.Sum()-synced)
	}
	if fsync.Count() != n {
		t.Fatalf("%d fsyncs for %d sequential commits, want one each", fsync.Count(), n)
	}
	slices.Sort(over)
	if median := over[n/2]; median >= 250*time.Microsecond {
		t.Fatalf("a lone commit waits a median %v beyond its fsync, want < 250µs", median)
	}
}

// TestBurstSharesFlush: committers that are runnable together share a
// flush under default options, so the coalescing that spares a lone
// commit its timer still amortizes fsyncs over a burst (the STOREs one
// AppendBatch lands on a replica). The test runs on one P, so the
// runtime's run queue fixes the order: the first committer signals the
// flusher while the other seven are runnable behind it, and only the
// flusher's yield lets them stage before the flush. A flusher that
// writes as soon as it is signalled takes at least two flushes here.
func TestBurstSharesFlush(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg := obs.NewRegistry()
	_, _, l := collect(t, t.TempDir(), Options{})
	defer l.Close()
	l.Instrument(reg)

	const n = 8
	release := make(chan struct{})
	errs := make(chan error, n)
	var started sync.WaitGroup
	for i := range n {
		started.Add(1)
		go func() {
			started.Done()
			<-release
			errs <- l.Commit(context.Background(), []Record{rec("k", fmt.Sprint("f", i), 1)}, nil)
		}()
	}
	started.Wait()
	close(release)
	for range n {
		if err := <-errs; err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	if flushes := reg.Counter("dharma_wal_flushes_total", "").Load(); flushes != 1 {
		t.Fatalf("%d commits released together took %d flushes, want 1", n, flushes)
	}
}
