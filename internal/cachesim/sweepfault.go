package cachesim

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Quarantine records one grid point the hardened sweep gave up on: the
// point panicked on every allowed attempt, so its result is missing
// while the rest of the sweep completed normally.
type Quarantine struct {
	// Index is the quarantined grid point.
	Index int
	// Attempts is how many times the point was tried (1 + retries).
	Attempts int
	// Panic is the recovered value of the final panic.
	Panic any
}

func (q Quarantine) String() string {
	return fmt.Sprintf("index %d quarantined after %d attempt(s): %v", q.Index, q.Attempts, q.Panic)
}

// RetryPolicy configures how SweepHardened retries a panicking grid
// point. The zero value means no retries: the first panic quarantines
// the point.
type RetryPolicy struct {
	// MaxRetries is how many extra attempts a panicking point gets after
	// its first failure.
	MaxRetries int
	// Backoff is the pause before the first retry; it doubles per
	// subsequent retry, capped at MaxBackoff. Zero retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff. Zero means 16×Backoff.
	MaxBackoff time.Duration
	// Rebuild discards the worker's pooled state and builds a fresh one
	// before each retry. The default (false) reuses the pooled worker —
	// callbacks are expected to Reset/Reseed their state per point, which
	// the conformance suite certifies recovers from a mid-trace panic.
	Rebuild bool
}

func (r RetryPolicy) backoffFor(retry int) time.Duration {
	if r.Backoff <= 0 {
		return 0
	}
	max := r.MaxBackoff
	if max <= 0 {
		max = 16 * r.Backoff
	}
	d := r.Backoff
	for i := 0; i < retry && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// SweepHardened runs a sweep that survives panicking grid points: a
// panic in fn is recovered, the point is retried per the policy, and a
// point that keeps failing is quarantined — recorded and skipped — so
// one poisoned input costs one grid point, not the whole sweep.
//
// The returned quarantine list is sorted by index and also stored in
// opt.Stats.Quarantined when opt.Stats is non-nil. The error is non-nil
// only when ctx ended before every point completed or was quarantined.
// When fn is deterministic per index and faults are transient (retries
// succeed), the sweep's results are byte-identical to a fault-free run.
func SweepHardened[W any](ctx context.Context, n int, opt SweepOptions, retry RetryPolicy,
	newWorker func() W, fn func(i int, w W)) ([]Quarantine, error) {
	var (
		mu          sync.Mutex
		quarantined []Quarantine
	)
	type hardWorker struct{ w W }
	err := Sweep(ctx, n, opt, func() *hardWorker {
		return &hardWorker{w: newWorker()}
	}, func(i int, hw *hardWorker) {
		for attempt := 0; ; attempt++ {
			p := runRecovered(i, hw.w, fn)
			if p == nil {
				return
			}
			if attempt >= retry.MaxRetries {
				mu.Lock()
				quarantined = append(quarantined, Quarantine{Index: i, Attempts: attempt + 1, Panic: p}) //gclint:sharedok under mu; sorted after the sweep
				mu.Unlock()
				return
			}
			if retry.Rebuild {
				hw.w = newWorker()
			}
			if d := retry.backoffFor(attempt); d > 0 {
				time.Sleep(d)
			}
		}
	})
	sort.Slice(quarantined, func(a, b int) bool { return quarantined[a].Index < quarantined[b].Index })
	if opt.Stats != nil {
		opt.Stats.Quarantined = quarantined
	}
	return quarantined, err
}

// runRecovered runs fn(i, w) and returns the recovered panic value, or
// nil on success. Split out so the recover scope is exactly one attempt.
func runRecovered[W any](i int, w W, fn func(i int, w W)) (p any) {
	defer func() { p = recover() }()
	fn(i, w)
	return nil
}
