package cachesim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gccache/internal/faults"
	"gccache/internal/model"
	"gccache/internal/trace"
)

func TestSweepCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := Sweep(ctx, 1000, SweepOptions{Workers: workers}, noWorker,
			func(int, struct{}) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d indices ran under a dead context", workers, ran.Load())
		}
	}
}

func TestSweepCtxStopsEarlyButCompletesClaimedChunks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Sweep(ctx, 100000, SweepOptions{Workers: 4}, noWorker,
		func(i int, _ struct{}) {
			if i == 0 {
				cancel()
			}
			ran.Add(1)
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == 0 || got == 100000 {
		t.Fatalf("ran %d of 100000 indices, want a strict partial run", got)
	}
}

func TestSweepCtxCompleteRunReturnsNilEvenIfCtxDiesAfter(t *testing.T) {
	// A context that ends after all work is claimed must not turn a
	// complete sweep into a spurious error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := Sweep(ctx, 64, SweepOptions{Workers: 4}, noWorker,
		func(int, struct{}) {}); err != nil {
		t.Fatalf("complete sweep returned %v", err)
	}
}

func TestSweepHardenedQuarantinesExactlyScheduledIndices(t *testing.T) {
	const n = 2000
	in := faults.New(faults.Plan{Seed: 42, PanicFrac: 0.05, PanicAttempts: faults.Forever})
	want := in.PanicIndices(n)
	if len(want) == 0 {
		t.Fatal("fault plan scheduled no panics")
	}
	for _, workers := range []int{1, 4} {
		inj := faults.New(faults.Plan{Seed: 42, PanicFrac: 0.05, PanicAttempts: faults.Forever})
		results := make([]int64, n)
		var st SweepStats
		q, err := SweepHardened(context.Background(), n, SweepOptions{Workers: workers, Stats: &st}, RetryPolicy{},
			noWorker,
			func(i int, _ struct{}) {
				inj.Step(i)
				results[i] = int64(i) * 3
			})
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if len(q) != len(want) {
			t.Fatalf("workers=%d: quarantined %d indices, want %d", workers, len(q), len(want))
		}
		for j, item := range q {
			if item.Index != want[j] {
				t.Fatalf("workers=%d: quarantine[%d] = index %d, want %d", workers, j, item.Index, want[j])
			}
			if item.Attempts != 1 {
				t.Errorf("workers=%d: index %d took %d attempts without retries", workers, item.Index, item.Attempts)
			}
			inj2, ok := item.Panic.(faults.Injected)
			if !ok || inj2.Index != item.Index {
				t.Errorf("workers=%d: quarantine panic value %v", workers, item.Panic)
			}
		}
		if len(st.Quarantined) != len(want) {
			t.Errorf("workers=%d: st.Quarantined has %d entries, want %d", workers, len(st.Quarantined), len(want))
		}
		// Every non-quarantined index must have completed.
		isQ := make(map[int]bool, len(want))
		for _, i := range want {
			isQ[i] = true
		}
		for i, v := range results {
			if isQ[i] {
				if v != 0 {
					t.Fatalf("workers=%d: quarantined index %d has a result", workers, i)
				}
			} else if v != int64(i)*3 {
				t.Fatalf("workers=%d: index %d missing its result", workers, i)
			}
		}
	}
}

func TestSweepHardenedRetriesMatchFaultFree(t *testing.T) {
	const n = 2000
	baseline := make([]int64, n)
	Sweep(context.Background(), n, SweepOptions{Workers: 4}, noWorker, func(i int, _ struct{}) {
		baseline[i] = int64(i)*7 + 1
	})
	for _, workers := range []int{1, 4} {
		inj := faults.New(faults.Plan{Seed: 9, PanicFrac: 0.05, PanicAttempts: 2})
		got := make([]int64, n)
		q, err := SweepHardened(context.Background(), n, SweepOptions{Workers: workers},
			RetryPolicy{MaxRetries: 3, Backoff: time.Microsecond},
			noWorker,
			func(i int, _ struct{}) {
				inj.Step(i)
				got[i] = int64(i)*7 + 1
			})
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if len(q) != 0 {
			t.Fatalf("workers=%d: transient faults left %d quarantined: %v", workers, len(q), q)
		}
		for i := range got {
			if got[i] != baseline[i] {
				t.Fatalf("workers=%d: index %d = %d, want %d (not identical to fault-free)",
					workers, i, got[i], baseline[i])
			}
		}
	}
}

func TestSweepHardenedRebuildDiscardsPoisonedWorker(t *testing.T) {
	const n = 64
	var built atomic.Int64
	inj := faults.New(faults.Plan{Seed: 1, PanicFrac: 1, PanicAttempts: 1})
	q, err := SweepHardened(context.Background(), n, SweepOptions{Workers: 1},
		RetryPolicy{MaxRetries: 1, Rebuild: true},
		func() *int { built.Add(1); v := 0; return &v },
		func(i int, w *int) {
			*w++
			inj.Step(i)
		})
	if err != nil || len(q) != 0 {
		t.Fatalf("q=%v err=%v", q, err)
	}
	// One initial worker plus one rebuild per index (every index panics
	// once).
	if got := built.Load(); got != n+1 {
		t.Errorf("built %d workers, want %d", got, n+1)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	r := RetryPolicy{Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	for retry, want := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond,
	} {
		if got := r.backoffFor(retry); got != want {
			t.Errorf("backoffFor(%d) = %v, want %v", retry, got, want)
		}
	}
	if got := (RetryPolicy{}).backoffFor(3); got != 0 {
		t.Errorf("zero policy backoff = %v", got)
	}
	if got := (RetryPolicy{Backoff: time.Millisecond}).backoffFor(10); got != 16*time.Millisecond {
		t.Errorf("default cap = %v, want 16ms", got)
	}
}

// cancelAt cancels a context when it serves its n-th access.
type cancelAt struct {
	fakeDeterministic
	n, seen int
	cancel  context.CancelFunc
}

func (c *cancelAt) Access(it model.Item) Access {
	if c.seen++; c.seen == c.n {
		c.cancel()
	}
	return c.fakeDeterministic.Access(it)
}

// TestRunCtxCancelsMidTrace checks a context that ends mid-replay stops
// Replay at the next poll, within one stride, with the partial
// statistics and ctx's error — on both replay loops.
func TestRunCtxCancelsMidTrace(t *testing.T) {
	tr := make(trace.Trace, 3*cancelStride)
	for i := range tr {
		tr[i] = model.Item(i % 64)
	}
	sources := map[string]func() trace.Source{
		"slice":  func() trace.Source { return trace.NewSliceSource(tr) },
		"source": func() trace.Source { return struct{ trace.Source }{trace.NewSliceSource(tr)} },
	}
	for name, src := range sources {
		ctx, cancel := context.WithCancel(context.Background())
		c := &cancelAt{n: cancelStride / 2, cancel: cancel}
		st, err := Replay(ctx, c, src(), ReplayOptions{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if st.Accesses != cancelStride {
			t.Errorf("%s: cancelled replay stopped after %d accesses, want %d (the next poll)", name, st.Accesses, cancelStride)
		}
	}
}
