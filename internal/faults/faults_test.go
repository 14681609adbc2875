package faults

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsDeterministic(t *testing.T) {
	a := New(Plan{Seed: 42, PanicFrac: 0.05})
	b := New(Plan{Seed: 42, PanicFrac: 0.05})
	const n = 2000
	pa, pb := a.PanicIndices(n), b.PanicIndices(n)
	if len(pa) == 0 {
		t.Fatal("5% panic fraction selected no indices out of 2000")
	}
	if len(pa) != len(pb) {
		t.Fatalf("schedules diverged: %d vs %d panic indices", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("schedules diverged at %d: %d vs %d", i, pa[i], pb[i])
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a := New(Plan{Seed: 1, PanicFrac: 0.1})
	b := New(Plan{Seed: 2, PanicFrac: 0.1})
	const n = 4000
	pa, pb := a.PanicIndices(n), b.PanicIndices(n)
	same := len(pa) == len(pb)
	if same {
		for i := range pa {
			if pa[i] != pb[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical panic schedules")
	}
}

func TestFractionRoughlyHolds(t *testing.T) {
	in := New(Plan{Seed: 7, PanicFrac: 0.05})
	const n = 20000
	got := len(in.PanicIndices(n))
	want := int(0.05 * n)
	if got < want/2 || got > want*2 {
		t.Errorf("PanicFrac 0.05 over %d indices selected %d, want ≈%d", n, got, want)
	}
}

func TestStepPanicsThenSucceeds(t *testing.T) {
	in := New(Plan{Seed: 3, PanicFrac: 1, PanicAttempts: 2})
	for attempt := 0; attempt < 2; attempt++ {
		func() {
			defer func() {
				p := recover()
				inj, ok := p.(Injected)
				if !ok {
					t.Fatalf("attempt %d: recovered %v, want Injected", attempt, p)
				}
				if inj.Index != 9 || inj.Attempt != attempt {
					t.Errorf("attempt %d: got %+v", attempt, inj)
				}
			}()
			in.Step(9)
			t.Fatalf("attempt %d: Step returned instead of panicking", attempt)
		}()
	}
	in.Step(9) // third attempt must succeed
	if got := in.Attempts(9); got != 3 {
		t.Errorf("Attempts(9) = %d, want 3", got)
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := New(Plan{})
	for i := 0; i < 100; i++ {
		in.Step(i) // must not panic
	}
	if got := in.PanicIndices(100); len(got) != 0 {
		t.Errorf("zero plan scheduled panics at %v", got)
	}
}

// TestStepAttemptsConcurrent hammers Step and Attempts from many
// goroutines — some sharing an index, some alone — and asserts the
// per-index attempt counts come out exact. Tests call Step from pooled
// sweep workers, so a lost update here would desynchronize a retry from
// the injection schedule.
func TestStepAttemptsConcurrent(t *testing.T) {
	in := New(Plan{}) // no faults: pure attempt accounting
	const (
		goroutines = 16
		perG       = 500
		shared     = 7 // index hit by every goroutine
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				in.Step(shared)
				in.Step(1000 + g) // private index
				_ = in.Attempts(shared)
			}
		}(g)
	}
	wg.Wait()
	if got := in.Attempts(shared); got != goroutines*perG {
		t.Errorf("shared index: Attempts = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := in.Attempts(1000 + g); got != perG {
			t.Errorf("private index %d: Attempts = %d, want %d", 1000+g, got, perG)
		}
	}
}

// TestStepPanicAttemptInterleaving runs Step concurrently against a
// panic-scheduled index and asserts exactly PanicAttempts of the
// callers panicked: attempt numbers are claimed atomically under the
// injector's lock, so two concurrent callers can never both observe
// attempt 0.
func TestStepPanicAttemptInterleaving(t *testing.T) {
	in := New(Plan{Seed: 11, PanicFrac: 1, PanicAttempts: 3})
	const callers = 24
	var panicked atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(Injected); !ok {
						t.Errorf("recovered %v, want Injected", p)
					}
					panicked.Add(1)
				}
			}()
			in.Step(5)
		}()
	}
	wg.Wait()
	if got := panicked.Load(); got != 3 {
		t.Errorf("%d callers panicked, want exactly PanicAttempts=3", got)
	}
	if got := in.Attempts(5); got != callers {
		t.Errorf("Attempts = %d, want %d", got, callers)
	}
}

// TestDifferentialScheduleAcrossRuns pins the SplitMix64 contract the
// chaos harness depends on: the same seed+plan yields the identical
// injection schedule across independently constructed injectors, for
// every fault kind, regardless of query order — so a rerun of a chaos
// scenario kills and partitions exactly the same connections.
func TestDifferentialScheduleAcrossRuns(t *testing.T) {
	plan := Plan{
		Seed: 97, PanicFrac: 0.03,
		DropFrac: 0.04, PartitionFrac: 0.02,
		ConnDelayFrac: 0.06, ConnDelay: time.Millisecond,
	}
	const n = 5000
	a, b := New(plan), New(plan)

	// Query b backwards first to prove decisions are order-independent.
	for i := n - 1; i >= 0; i-- {
		b.ShouldDrop(i)
		b.ShouldPartition(i)
	}
	type sched struct {
		name string
		fn   func(*Injector, int) []int
	}
	for _, s := range []sched{
		{"panic", func(in *Injector, n int) []int { return in.PanicIndices(n) }},
		{"drop", func(in *Injector, n int) []int { return in.DropIndices(n) }},
		{"partition", func(in *Injector, n int) []int { return in.PartitionIndices(n) }},
	} {
		sa, sb := s.fn(a, n), s.fn(b, n)
		if len(sa) == 0 {
			t.Errorf("%s: schedule selected no indices out of %d", s.name, n)
		}
		if len(sa) != len(sb) {
			t.Fatalf("%s: schedules diverged: %d vs %d indices", s.name, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: schedules diverged at %d: %d vs %d", s.name, i, sa[i], sb[i])
			}
		}
	}
	// The kinds must not alias: a drop schedule is not the partition
	// schedule under a different name.
	da, pa := a.DropIndices(n), a.PartitionIndices(n)
	if len(da) == len(pa) {
		same := true
		for i := range da {
			if da[i] != pa[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("drop and partition schedules are identical — salts alias")
		}
	}
	// ConnDelay is all-or-nothing per index and consistent across runs.
	for i := 0; i < n; i++ {
		da, db := a.ConnDelay(i), b.ConnDelay(i)
		if da != db {
			t.Fatalf("ConnDelay(%d) diverged across runs: %v vs %v", i, da, db)
		}
		if da != 0 && da != time.Millisecond {
			t.Fatalf("ConnDelay(%d) = %v, want 0 or the plan delay", i, da)
		}
	}
}
