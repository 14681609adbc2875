package cachesim

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"gccache/internal/model"
	"gccache/internal/trace"
)

// TestSweepPanicPropagates pins that a panic in fn reaches Sweep's
// caller: re-raised after the workers stop, or, with one worker, unwound
// straight from fn, whose frames are then still on the caller's stack.
func TestSweepPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				p := recover()
				if p != "boom-37" {
					t.Errorf("workers=%d: recovered %v, want boom-37", workers, p)
				}
				if inline := strings.Contains(string(debug.Stack()), "sweepWorker"); inline != (workers == 1) {
					t.Errorf("workers=%d: sweepWorker on the recovering stack = %v", workers, inline)
				}
			}()
			Sweep(context.Background(), 100, SweepOptions{Workers: workers}, noWorker, func(i int, _ struct{}) {
				if i == 37 {
					panic("boom-37")
				}
			})
			t.Errorf("workers=%d: Sweep returned instead of panicking", workers)
		}()
	}
}

func TestSweepCancelledBeforeStart(t *testing.T) {
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

func TestSweepStopsEarlyButCompletesClaimedChunks(t *testing.T) {
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

func TestSweepCompleteRunReturnsNilEvenIfCtxDiesAfter(t *testing.T) {
	// A context that ends after all work is claimed must not turn a
	// complete sweep into a spurious error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := Sweep(ctx, 64, SweepOptions{Workers: 4}, noWorker,
		func(int, struct{}) {}); err != nil {
		t.Fatalf("complete sweep returned %v", err)
	}
}

func TestSweepNewWorkerPanicPropagates(t *testing.T) {
	defer func() {
		if p := recover(); p != "bad worker" {
			t.Errorf("recovered %v, want bad worker", p)
		}
	}()
	Sweep(context.Background(), 10, SweepOptions{Workers: 4}, func() int { panic("bad worker") }, func(int, int) {})
}

func TestSweepPoolsWorkerState(t *testing.T) {
	const n = 1000
	var built atomic.Int64
	visited := make([]atomic.Int32, n)
	workers := 4
	Sweep(context.Background(), n, SweepOptions{Workers: workers}, func() *int {
		built.Add(1)
		v := 0
		return &v
	}, func(i int, w *int) {
		*w++ // worker-local, no synchronization needed
		visited[i].Add(1)
	})
	if got := built.Load(); got < 1 || got > int64(workers) {
		t.Errorf("built %d worker states, want 1..%d", got, workers)
	}
	for i := range visited {
		if visited[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, visited[i].Load())
		}
	}
}

func TestSweepSingleWorkerRunsInOrder(t *testing.T) {
	var got []int
	Sweep(context.Background(), 5, SweepOptions{Workers: 1}, noWorker, func(i int, _ struct{}) {
		got = append(got, i)
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("serial sweep order %v", got)
		}
	}
}

// resetCounter counts Reset calls across every instance; it implements
// Reseeder so RunSeeds pools it.
type resetCounter struct {
	fakeDeterministic
	resets *atomic.Int64
}

func (r *resetCounter) Reset()       { r.resets.Add(1) }
func (r *resetCounter) Reseed(int64) {}

// TestSweepCachesResetsEveryPoint pins the pooled-cache contract: Sweep
// never resets worker state, so RunSeeds must Reset every cache it
// reuses — each point after a worker's first starts cold.
func TestSweepCachesResetsEveryPoint(t *testing.T) {
	const n = 120
	var builds, resets atomic.Int64
	_, err := RunSeeds(context.Background(), func(int64) Cache {
		builds.Add(1)
		return &resetCounter{resets: &resets}
	}, trace.Trace{1, 2, 3}, make([]int64, n))
	if err != nil {
		t.Fatal(err)
	}
	if got := builds.Load() + resets.Load(); got != n {
		t.Errorf("builds + resets = %d, want one per point (%d)", got, n)
	}
	if max := int64(runtime.GOMAXPROCS(0)); builds.Load() > max {
		t.Errorf("built %d caches, want ≤ %d", builds.Load(), max)
	}
}

// TestRecorderPresizedMatchesGrown feeds an identical random access
// stream to a Recorder presized for the universe and one that grows its
// pristine set from empty, and requires identical statistics.
func TestRecorderPresizedMatchesGrown(t *testing.T) {
	const universe = 32
	rng := rand.New(rand.NewSource(11))
	gen := NewRecorder("p", 0)
	bnd := NewRecorder("p", universe)
	if ids := 64 * len(bnd.pristine); ids < universe {
		t.Fatalf("presized recorder covers %d items, want %d", ids, universe)
	}
	present := make(map[model.Item]bool)
	for step := 0; step < 20000; step++ {
		it := model.Item(rng.Intn(universe))
		var a Access
		if present[it] {
			a = Access{Hit: true}
		} else {
			loaded := []model.Item{it}
			for s := model.Item(rng.Intn(universe)); rng.Intn(2) == 0; s = model.Item(rng.Intn(universe)) {
				if !present[s] && s != it {
					loaded = append(loaded, s)
					present[s] = true
				}
			}
			var evicted []model.Item
			for v := range present {
				if v != it && rng.Intn(8) == 0 {
					evicted = append(evicted, v)
				}
			}
			for _, v := range evicted {
				delete(present, v)
			}
			present[it] = true
			a = Access{net: netOf(loaded, evicted)}
		}
		gen.Observe(it, a)
		bnd.Observe(it, a)
	}
	if gen.Stats() != bnd.Stats() {
		t.Fatalf("stats diverged:\n grown    %+v\n presized %+v", gen.Stats(), bnd.Stats())
	}
}

// TestRecorderPresizeClamp: whatever universe a Recorder is given, it
// presizes at most MaxUniverse items, and it classifies items past its
// presized end by growing.
func TestRecorderPresizeClamp(t *testing.T) {
	for _, universe := range []int{0, MaxUniverse + 1} {
		r := NewRecorder("p", universe)
		if got := 64 * len(r.pristine); got > MaxUniverse {
			t.Errorf("universe %d: presized %d items, want ≤ %d", universe, got, MaxUniverse)
		}
		it := model.Item(MaxUniverse + 5)
		r.Observe(it, Access{net: netOf([]model.Item{it, it + 1}, nil)})
		r.Observe(it+1, Access{Hit: true})
		if st := r.Stats(); st.SpatialHits != 1 || st.Misses != 1 {
			t.Errorf("universe %d: stats %+v, want 1 miss and 1 spatial hit", universe, st)
		}
	}
}

func TestRecorderResetReuses(t *testing.T) {
	for _, r := range []*Recorder{NewRecorder("a", 0), NewRecorder("a", 16)} {
		r.Observe(0, Access{net: netOf([]model.Item{0, 1}, nil)})
		r.Observe(1, Access{Hit: true})
		r.Reset("b")
		if s := r.Stats(); s.Policy != "b" || s.Accesses != 0 {
			t.Fatalf("stats after Reset = %+v", s)
		}
		// Item 1's pristineness must not leak across Reset.
		r.Observe(1, Access{Hit: true})
		if s := r.Stats(); s.SpatialHits != 0 || s.TemporalHits != 1 {
			t.Fatalf("pristine state leaked across Reset: %+v", s)
		}
	}
}

// seededFake implements Reseeder: it misses exactly once per seed parity,
// making reuse-vs-rebuild differences observable.
type seededFake struct {
	seed int64
	pos  int
}

func (f *seededFake) Name() string { return "seeded-fake" }
func (f *seededFake) Access(it model.Item) Access {
	f.pos++
	if f.pos%int(2+f.seed%3) == 0 {
		return Access{Hit: true}
	}
	return Access{net: netOf([]model.Item{it}, nil)}
}
func (f *seededFake) Contains(model.Item) bool { return false }
func (f *seededFake) Len() int                 { return 0 }
func (f *seededFake) Capacity() int            { return 1 }
func (f *seededFake) Reset()                   { f.pos = 0 }
func (f *seededFake) Reseed(seed int64)        { f.seed = seed }

func TestRunSeedsReseedsPooledCaches(t *testing.T) {
	tr := make(trace.Trace, 60)
	for i := range tr {
		tr[i] = model.Item(i)
	}
	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	var builds atomic.Int64
	build := func(seed int64) Cache {
		builds.Add(1)
		return &seededFake{seed: seed}
	}
	got, err := RunSeeds(context.Background(), build, tr, seeds)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: a fresh instance per seed, run serially.
	for i, seed := range seeds {
		st, _ := Replay(context.Background(), &seededFake{seed: seed}, trace.NewSliceSource(tr), ReplayOptions{})
		want := st.MissRatio()
		if got[i] != want {
			t.Errorf("seed %d: ratio %v, want %v (pooled reuse changed behaviour)", seed, got[i], want)
		}
	}
	max := int64(runtime.GOMAXPROCS(0))
	if max > int64(len(seeds)) {
		max = int64(len(seeds))
	}
	if builds.Load() > max {
		t.Errorf("built %d caches for %d seeds, want ≤ %d (per-worker pooling)", builds.Load(), len(seeds), max)
	}
}

// TestSweepPooledRace exercises the chunked sweep with per-worker pooled
// caches, a shared results slice, and a shared geometry under the race
// detector (`make race` runs this package with -race): worker-local
// caches may be mutated freely, AppendItems on a shared geometry must be
// race-free, and distinct result slots never conflict.
func TestSweepPooledRace(t *testing.T) {
	const n = 500
	geo := model.NewFixed(8)
	results := make([]int, n)
	type worker struct {
		cache *fakeDeterministic
		buf   []model.Item
	}
	Sweep(context.Background(), n, SweepOptions{}, func() *worker {
		return &worker{cache: &fakeDeterministic{}}
	}, func(i int, w *worker) {
		w.cache.Reset()
		w.buf = model.AppendItemsOf(geo, w.buf[:0], model.Block(i))
		total := 0
		for _, it := range w.buf {
			a := w.cache.Access(it)
			total += len(a.Loaded())
		}
		results[i] = total
	})
	for i, r := range results {
		if r != geo.BlockSize() {
			t.Fatalf("result[%d] = %d, want %d", i, r, geo.BlockSize())
		}
	}
}
