// Package loadgen holds the scenario drivers behind dharma-bench's
// overload and scale subcommands, and the membership Churner the churn
// tests run against a live cluster. Throughput and latency of the
// paper's primitives are measured by the repository benchmark (bench/),
// not here.
package loadgen

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dharma/internal/core"
	"dharma/internal/obs"
	"dharma/internal/wire"
)

// OverloadConfig parameterises the overload scenario: a calibration
// pass measures the deployment's closed-loop capacity, then open-loop
// phases offer multiples of it and measure what survives. A healthy
// deployment's goodput curve is flat — offered load beyond capacity is
// rejected early (busy) instead of collapsing the part that fits.
type OverloadConfig struct {
	// Multipliers are the offered-load factors relative to measured
	// capacity (default 1, 2, 4).
	Multipliers []float64
	// Duration is how long each phase offers load (default 2s);
	// CalibrateDuration bounds the capacity measurement (default 1s).
	Duration, CalibrateDuration time.Duration
	// Workers is the closed-loop concurrency of the calibration pass
	// (default 8).
	Workers int
	// OpTimeout is the per-operation deadline during the open-loop
	// phases (default 250ms); without one, a saturated deployment would
	// accumulate waiters instead of failing them fast.
	OpTimeout time.Duration
	// MaxInFlight caps the client-side concurrent operations per phase
	// (default 4096); offered ops beyond it are shed client-side and
	// counted, so the generator itself cannot become the unbounded
	// queue it is trying to detect.
	MaxInFlight int
	// Resources and Tags size the seeded vocabulary (default 64 and 32);
	// TagZipfS/TagZipfV shape tag popularity.
	Resources, Tags    int
	TagZipfS, TagZipfV float64
	// Seed drives the generator's randomness.
	Seed int64
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if len(c.Multipliers) == 0 {
		c.Multipliers = []float64{1, 2, 4}
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.CalibrateDuration <= 0 {
		c.CalibrateDuration = time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 250 * time.Millisecond
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	if c.Resources <= 0 {
		c.Resources = 64
	}
	if c.Tags <= 0 {
		c.Tags = 32
	}
	if c.TagZipfS < 1.01 {
		c.TagZipfS = 1.2
	}
	if c.TagZipfV < 1 {
		c.TagZipfV = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// OverloadPhase is one offered-load step's outcome.
type OverloadPhase struct {
	Multiplier float64       // offered load relative to capacity
	Offered    float64       // target rate, ops/s
	Issued     int64         // ops actually dispatched
	Succeeded  int64         // ops that completed in time
	Busy       int64         // ops rejected with a BUSY answer
	Deadline   int64         // ops that hit OpTimeout
	Failed     int64         // other failures
	Shed       int64         // ops dropped client-side at MaxInFlight
	Goodput    float64       // successes per second
	P50, P99   time.Duration // success latency percentiles (obs.Histogram buckets)
	ServerBusy int64         // server-side admission rejections (delta)
	MaxGor     int           // peak goroutine count sampled in-phase
}

// OverloadReport is the scenario's full result.
type OverloadReport struct {
	Capacity           float64 // calibrated closed-loop ops/s
	BaselineGoroutines int     // before any phase ran
	FinalGoroutines    int     // after the last phase quiesced
	Phases             []OverloadPhase
}

// String renders the goodput-vs-offered-load table.
func (r *OverloadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "capacity (closed-loop): %.0f ops/s\n", r.Capacity)
	fmt.Fprintf(&b, "%-6s %10s %8s %8s %6s %8s %6s %6s %10s %10s %8s %6s\n",
		"mult", "offered/s", "issued", "ok", "busy", "deadline", "fail", "shed", "goodput/s", "p50", "p99", "gor")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%-6.1f %10.0f %8d %8d %6d %8d %6d %6d %10.0f %10s %8s %6d\n",
			p.Multiplier, p.Offered, p.Issued, p.Succeeded, p.Busy, p.Deadline, p.Failed, p.Shed,
			p.Goodput, p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond), p.MaxGor)
	}
	fmt.Fprintf(&b, "goroutines: baseline %d, final %d\n", r.BaselineGoroutines, r.FinalGoroutines)
	return b.String()
}

// WriteCSV writes one row per phase.
func (r *OverloadReport) WriteCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{
		"multiplier", "offered_per_s", "issued", "succeeded", "busy", "deadline",
		"failed", "shed", "goodput_per_s", "p50_us", "p99_us", "server_busy", "max_goroutines",
	}); err != nil {
		f.Close()
		return err
	}
	for _, p := range r.Phases {
		rec := []string{
			fmt.Sprintf("%.2f", p.Multiplier),
			fmt.Sprintf("%.1f", p.Offered),
			fmt.Sprintf("%d", p.Issued),
			fmt.Sprintf("%d", p.Succeeded),
			fmt.Sprintf("%d", p.Busy),
			fmt.Sprintf("%d", p.Deadline),
			fmt.Sprintf("%d", p.Failed),
			fmt.Sprintf("%d", p.Shed),
			fmt.Sprintf("%.1f", p.Goodput),
			fmt.Sprintf("%d", p.P50.Microseconds()),
			fmt.Sprintf("%d", p.P99.Microseconds()),
			fmt.Sprintf("%d", p.ServerBusy),
			fmt.Sprintf("%d", p.MaxGor),
		}
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Check verifies the two overload-protection invariants: goodput at
// every offered multiple stays within tolerance of the first phase's
// goodput (no collapse past saturation), and the deployment sheds load
// without growing goroutines past baseline + budget. It returns every
// violation found, empty when the curve is flat.
func (r *OverloadReport) Check(tolerance float64, goroutineBudget int) []string {
	var problems []string
	if len(r.Phases) == 0 {
		return []string{"no phases ran"}
	}
	base := r.Phases[0].Goodput
	if base <= 0 {
		return []string{"baseline phase produced zero goodput"}
	}
	floor := base * (1 - tolerance)
	for _, p := range r.Phases[1:] {
		if p.Goodput < floor {
			problems = append(problems, fmt.Sprintf(
				"goodput collapsed at %.1fx offered load: %.0f ops/s vs %.0f at baseline (floor %.0f, tolerance %.0f%%)",
				p.Multiplier, p.Goodput, base, floor, tolerance*100))
		}
	}
	if budget := r.BaselineGoroutines + goroutineBudget; r.FinalGoroutines > budget {
		problems = append(problems, fmt.Sprintf(
			"goroutines grew past budget: %d final vs %d baseline (+%d allowed)",
			r.FinalGoroutines, r.BaselineGoroutines, goroutineBudget))
	}
	return problems
}

// RunOverload seeds a small vocabulary, calibrates closed-loop
// capacity, then offers cfg.Multipliers × capacity in open-loop phases
// — issuing each operation on its own deadline regardless of whether
// earlier ones finished, the way real independent clients behave.
// serverBusy, when non-nil, samples the deployment's total server-side
// admission rejections (e.g. simnet Counters().Busy); phases record the
// delta.
func RunOverload(ctx context.Context, cfg OverloadConfig, engines []*core.Engine, serverBusy func() int64) (*OverloadReport, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("loadgen: no engines to drive")
	}
	cfg = cfg.withDefaults()
	vocab := newVocabulary(cfg.Resources, cfg.Tags)

	// Seed: every tag gets a block so reads have something to find.
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for i, r := range vocab.resources {
		tags := []string{vocab.tags[i%len(vocab.tags)]}
		if err := engines[i%len(engines)].InsertResource(ctx, r, "uri:"+r, tags...); err != nil {
			return nil, fmt.Errorf("loadgen: overload seed %q: %w", r, err)
		}
	}
	for i := len(vocab.resources); i < len(vocab.tags); i++ {
		r := vocab.resources[i%len(vocab.resources)]
		if err := engines[i%len(engines)].Tag(ctx, r, vocab.tags[i]); err != nil {
			return nil, fmt.Errorf("loadgen: overload seed tag %q: %w", vocab.tags[i], err)
		}
	}

	rep := &OverloadReport{BaselineGoroutines: runtime.NumGoroutine()}

	capacity, err := calibrate(ctx, cfg, engines, vocab)
	if err != nil {
		return nil, err
	}
	rep.Capacity = capacity

	for _, mult := range cfg.Multipliers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		phase := runPhase(ctx, cfg, engines, vocab, mult, capacity, serverBusy, seedRng.Int63())
		rep.Phases = append(rep.Phases, phase)
	}
	// Quiesce before the final count: servers may still be draining work
	// whose callers already timed out — bounded work, not a leak. Take
	// the lowest count seen inside the window so a transient tail does
	// not fail the goroutine gate.
	rep.FinalGoroutines = runtime.NumGoroutine()
	quiesce := time.Now().Add(3 * time.Second)
	for time.Now().Before(quiesce) && ctx.Err() == nil {
		if g := runtime.NumGoroutine(); g < rep.FinalGoroutines {
			rep.FinalGoroutines = g
		}
		if rep.FinalGoroutines <= rep.BaselineGoroutines {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	return rep, nil
}

// vocabulary is the name universe of one overload run.
type vocabulary struct {
	resources, tags []string
}

func newVocabulary(resources, tags int) vocabulary {
	var v vocabulary
	for i := 0; i < resources; i++ {
		v.resources = append(v.resources, fmt.Sprintf("lr%d", i))
	}
	for i := 0; i < tags; i++ {
		v.tags = append(v.tags, fmt.Sprintf("lt%d", i))
	}
	return v
}

// calibrate measures closed-loop capacity: cfg.Workers goroutines issue
// operations back-to-back for CalibrateDuration; capacity is the
// completion rate. Closed-loop never overloads — each worker waits for
// its previous op — so this is the sustainable service rate the
// open-loop phases are measured against.
func calibrate(ctx context.Context, cfg OverloadConfig, engines []*core.Engine, vocab vocabulary) (float64, error) {
	cctx, cancel := context.WithTimeout(ctx, cfg.CalibrateDuration)
	defer cancel()
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			zipf := rand.NewZipf(rng, cfg.TagZipfS, cfg.TagZipfV, uint64(len(vocab.tags)-1))
			for i := 0; cctx.Err() == nil; i++ {
				if overloadOp(cctx, engines[(w+i)%len(engines)], vocab, zipf, rng, i) == nil {
					done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := done.Load()
	if n == 0 {
		return 0, fmt.Errorf("loadgen: calibration completed zero operations")
	}
	return float64(n) / elapsed.Seconds(), nil
}

// overloadOp issues one operation: even indexes write (Tag on a
// Zipf-hot tag's resource), odd indexes read (SearchStep on a hot tag)
// — a half-write mix, the worst case for admission because writes fan
// out to the whole replica set.
func overloadOp(ctx context.Context, e *core.Engine, vocab vocabulary, zipf *rand.Zipf, rng *rand.Rand, i int) error {
	tag := vocab.tags[int(zipf.Uint64())%len(vocab.tags)]
	if i%2 == 0 {
		r := vocab.resources[rng.Intn(len(vocab.resources))]
		return e.Tag(ctx, r, tag)
	}
	_, _, err := e.SearchStep(ctx, tag)
	return err
}

// runPhase offers mult × capacity for cfg.Duration. The pacer loop
// wakes every 2ms, computes how many ops the offered rate owes, and
// dispatches each on its own goroutine under OpTimeout — up to the
// MaxInFlight client-side cap, past which offered ops are shed and
// counted rather than queued (an open-loop generator that queues is
// just measuring its own backlog).
func runPhase(ctx context.Context, cfg OverloadConfig, engines []*core.Engine, vocab vocabulary, mult, capacity float64, serverBusy func() int64, seed int64) OverloadPhase {
	offered := mult * capacity
	ph := OverloadPhase{Multiplier: mult, Offered: offered}

	var busyBefore int64
	if serverBusy != nil {
		busyBefore = serverBusy()
	}

	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, cfg.TagZipfS, cfg.TagZipfV, uint64(len(vocab.tags)-1))
	// Pre-draw the per-op randomness in the single-threaded pacer so the
	// dispatched goroutines share nothing.
	type opPlan struct {
		tag, resource string
	}
	plan := func() opPlan {
		return opPlan{
			tag:      vocab.tags[int(zipf.Uint64())%len(vocab.tags)],
			resource: vocab.resources[rng.Intn(len(vocab.resources))],
		}
	}

	var lat obs.Histogram // Check reads neither percentile; 2x resolution suffices
	var succeeded, busy, deadline, failed atomic.Int64
	inflight := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	maxGor := runtime.NumGoroutine()

	start := time.Now()
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	var issued, shed int64
	for time.Since(start) < cfg.Duration && ctx.Err() == nil {
		<-ticker.C
		if g := runtime.NumGoroutine(); g > maxGor {
			maxGor = g
		}
		// Deficit pacing: how many ops the offered rate owes by now,
		// minus what was already issued or shed. Sheds count as offered
		// — the generator does not re-offer them later, or a shed storm
		// would just defer the overload instead of measuring it.
		owe := int64(offered*time.Since(start).Seconds()) - issued - shed
		for ; owe > 0; owe-- {
			select {
			case inflight <- struct{}{}:
			default:
				shed++
				continue
			}
			issued++
			p := plan()
			write := issued%2 == 0
			e := engines[int(issued)%len(engines)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-inflight }()
				opCtx, cancel := context.WithTimeout(ctx, cfg.OpTimeout)
				defer cancel()
				opStart := time.Now()
				var err error
				if write {
					err = e.Tag(opCtx, p.resource, p.tag)
				} else {
					_, _, err = e.SearchStep(opCtx, p.tag)
				}
				switch {
				case err == nil:
					succeeded.Add(1)
					lat.Observe(time.Since(opStart))
				case errors.Is(err, wire.ErrBusy):
					busy.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					deadline.Add(1)
				default:
					failed.Add(1)
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	ph.Issued = issued
	ph.Shed = shed
	ph.Succeeded = succeeded.Load()
	ph.Busy = busy.Load()
	ph.Deadline = deadline.Load()
	ph.Failed = failed.Load()
	ph.Goodput = float64(ph.Succeeded) / elapsed.Seconds()
	ph.P50, ph.P99 = time.Duration(lat.Quantile(50)), time.Duration(lat.Quantile(99))
	ph.MaxGor = maxGor
	if serverBusy != nil {
		ph.ServerBusy = serverBusy() - busyBefore
	}
	return ph
}
