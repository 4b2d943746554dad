package loadgen

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dharma/internal/core"
	"dharma/internal/dht"
	"dharma/internal/kadid"
	"dharma/internal/wire"
)

// overloadConfigFast keeps the scenario short enough for the test
// suite while still running calibration plus two open-loop phases.
func overloadConfigFast() OverloadConfig {
	return OverloadConfig{
		Multipliers:       []float64{1, 3},
		Duration:          150 * time.Millisecond,
		CalibrateDuration: 100 * time.Millisecond,
		Workers:           4,
		OpTimeout:         50 * time.Millisecond,
		Resources:         16,
		Tags:              8,
		Seed:              42,
	}
}

// latencyStore gives every block operation a fixed service time, so the
// engines' capacity is set by that latency and by concurrency, not by
// how much CPU the test binaries running beside this one leave it:
// offered load past the calibrated rate then adds concurrency instead
// of racing other processes for cores.
type latencyStore struct{ dht.Store }

const storeLatency = time.Millisecond

func (s latencyStore) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	time.Sleep(storeLatency)
	return s.Store.Append(ctx, key, entries)
}

func (s latencyStore) AppendBatch(ctx context.Context, items []dht.BatchItem) error {
	time.Sleep(storeLatency)
	return s.Store.AppendBatch(ctx, items)
}

func (s latencyStore) Get(ctx context.Context, key kadid.ID, topN int) ([]wire.Entry, error) {
	time.Sleep(storeLatency)
	return s.Store.Get(ctx, key, topN)
}

// TestRunOverloadLocalEngines drives the scenario against in-process
// engines sharing one store: goodput must not collapse at 3x offered
// load (the store has effectively unbounded concurrency, so this
// checks the generator's accounting, not admission).
func TestRunOverloadLocalEngines(t *testing.T) {
	store := latencyStore{dht.NewLocal()}
	engines := make([]*core.Engine, 4)
	for i := range engines {
		e, err := core.NewEngine(store, core.Config{Mode: core.Approximated, K: 3, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	rep, err := RunOverload(context.Background(), overloadConfigFast(), engines, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Capacity <= 0 {
		t.Fatalf("calibrated capacity %.1f, want > 0", rep.Capacity)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("ran %d phases, want 2", len(rep.Phases))
	}
	for _, p := range rep.Phases {
		if p.Issued == 0 {
			t.Fatalf("phase %.1fx issued nothing", p.Multiplier)
		}
		if got := p.Succeeded + p.Busy + p.Deadline + p.Failed; got != p.Issued {
			t.Fatalf("phase %.1fx accounting: %d classified of %d issued", p.Multiplier, got, p.Issued)
		}
	}
	if problems := rep.Check(0.5, 200); len(problems) != 0 {
		t.Fatalf("local engines should survive 3x offered load: %v", problems)
	}
	// The report renders without panicking and names both phases.
	s := rep.String()
	if !strings.Contains(s, "capacity") || !strings.Contains(s, "3.0") {
		t.Fatalf("report missing expected fields:\n%s", s)
	}
}

// TestOverloadReportCheckFlagsCollapse: Check must fail a report whose
// goodput drops past tolerance, and one whose goroutines grew.
func TestOverloadReportCheckFlagsCollapse(t *testing.T) {
	rep := &OverloadReport{
		Capacity:           1000,
		BaselineGoroutines: 10,
		FinalGoroutines:    10,
		Phases: []OverloadPhase{
			{Multiplier: 1, Goodput: 1000},
			{Multiplier: 4, Goodput: 100},
		},
	}
	if problems := rep.Check(0.2, 100); len(problems) != 1 {
		t.Fatalf("collapsed goodput not flagged: %v", problems)
	}
	rep.Phases[1].Goodput = 900
	if problems := rep.Check(0.2, 100); len(problems) != 0 {
		t.Fatalf("flat curve flagged: %v", problems)
	}
	rep.FinalGoroutines = 500
	if problems := rep.Check(0.2, 100); len(problems) != 1 {
		t.Fatalf("goroutine growth not flagged: %v", problems)
	}
	if problems := (&OverloadReport{}).Check(0.2, 100); len(problems) == 0 {
		t.Fatal("empty report passed Check")
	}
}

// TestOverloadReportWriteCSV round-trips the phase table to disk.
func TestOverloadReportWriteCSV(t *testing.T) {
	rep := &OverloadReport{
		Capacity: 500,
		Phases: []OverloadPhase{
			{Multiplier: 1, Offered: 500, Issued: 100, Succeeded: 98, Goodput: 490},
			{Multiplier: 4, Offered: 2000, Issued: 400, Succeeded: 97, Busy: 300, Goodput: 485},
		},
	}
	path := filepath.Join(t.TempDir(), "overload.csv")
	if err := rep.WriteCSV(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 phases", len(lines))
	}
	if !strings.HasPrefix(lines[0], "multiplier,") {
		t.Fatalf("CSV header wrong: %q", lines[0])
	}
}
