package admission

import (
	"sync"
	"testing"
)

func TestLimitRefusesPastItsValue(t *testing.T) {
	l := NewLimit(2)
	a, ok1 := l.Acquire()
	b, ok2 := l.Acquire()
	if !ok1 || !ok2 {
		t.Fatal("a limit of 2 refused one of the first two operations")
	}
	if _, ok := l.Acquire(); ok {
		t.Fatal("a limit of 2 admitted a third operation")
	}
	l.Release(a, false)
	c, ok := l.Acquire()
	if !ok {
		t.Fatal("a released slot was not reusable")
	}
	l.Release(b, false)
	l.Release(c, false)
}

// TestLimitCutsToHalfTheFlight: an overloaded operation sets the limit
// to half the operations then in flight; operations that started before
// that cut cannot cut again, the first one started after it can, and no
// cut goes below MinOps.
func TestLimitCutsToHalfTheFlight(t *testing.T) {
	l := NewLimit(64)
	var before []uint64
	for range 40 {
		tk, _ := l.Acquire()
		before = append(before, tk)
	}
	for _, tk := range before {
		l.Release(tk, true)
	}
	if got := l.Value(); got != 20 {
		t.Fatalf("forty overloaded operations of one flight left the limit at %d, want half of 40 = 20", got)
	}
	var after []uint64
	for range 20 {
		tk, _ := l.Acquire()
		after = append(after, tk)
	}
	l.Release(after[0], true)
	if got := l.Value(); got != 10 {
		t.Fatalf("an overloaded operation started after the cut left the limit at %d, want half of 20 = 10", got)
	}
	for _, tk := range after[1:] {
		l.Release(tk, false)
	}
	tk, _ := l.Acquire()
	l.Release(tk, true)
	if got := l.Value(); got != MinOps {
		t.Fatalf("a lone overloaded operation left the limit at %d, want the floor %d", got, MinOps)
	}
}

// TestLimitGrowsBackToItsCeiling: each operation that ends without
// overload adds 1/limit, never past the ceiling.
func TestLimitGrowsBackToItsCeiling(t *testing.T) {
	l := NewLimit(10)
	tk, _ := l.Acquire()
	l.Release(tk, true)
	if got := l.Value(); got != MinOps {
		t.Fatalf("limit after a cut from 10 = %d, want the floor %d", got, MinOps)
	}
	// Each clean completion adds 1/limit: about limit completions per
	// step, so 8 → 10 takes 18 of them.
	prev, steps := MinOps, 0
	for l.Value() < 10 {
		tk, _ := l.Acquire()
		l.Release(tk, false)
		if v := l.Value(); v < prev || v > prev+1 {
			t.Fatalf("a clean completion moved the limit from %d to %d", prev, l.Value())
		}
		prev = l.Value()
		if steps++; steps > 20 {
			t.Fatalf("limit only %d after %d clean completions from 8, want 10", l.Value(), steps)
		}
	}
	if steps < 17 {
		t.Fatalf("limit reached 10 after %d clean completions, want about 18: growth is additive", steps)
	}
	for range 100 {
		tk, _ := l.Acquire()
		l.Release(tk, false)
	}
	if got := l.Value(); got != 10 {
		t.Fatalf("limit grew to %d past its ceiling 10", got)
	}
}

func TestLimitConcurrentUse(t *testing.T) {
	l := NewLimit(8)
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				if tk, ok := l.Acquire(); ok {
					l.Release(tk, (g+i)%7 == 0)
				}
			}
		}()
	}
	wg.Wait()
	if v := l.Value(); v != 8 {
		t.Fatalf("limit %d, want 8: a ceiling below MinOps is also the floor", v)
	}
	if l.running != 0 {
		t.Fatalf("%d operations still counted as running", l.running)
	}
}
