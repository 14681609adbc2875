package cachesim

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"gccache/internal/model"
	"gccache/internal/trace"
)

// fakeCache is a scripted cache for exercising the Recorder and runner.
type fakeCache struct {
	script  []Access
	pos     int
	resets  int
	present map[model.Item]bool
}

func (f *fakeCache) Name() string { return "fake" }
func (f *fakeCache) Access(it model.Item) Access {
	a := f.script[f.pos]
	f.pos++
	return a
}
func (f *fakeCache) Contains(it model.Item) bool { return f.present[it] }
func (f *fakeCache) Len() int                    { return len(f.present) }
func (f *fakeCache) Capacity() int               { return 4 }
func (f *fakeCache) Reset()                      { f.resets++ }

// netOf returns a Net that lists loaded and then evicted through Load
// and Evict, one item at a time in the order given, as a per-item
// policy fills one.
func netOf(loaded, evicted []model.Item) *Net {
	n := &Net{}
	for _, x := range loaded {
		n.Load(x)
	}
	for _, x := range evicted {
		n.Evict(x)
	}
	return n
}

// TestAccessFitsInRegisters pins Access's shape. Every request returns
// one through at least three calls (the policy, the Cache interface
// call in the replay loop, Recorder.Observe). The compiler keeps a
// value in registers only up to four words and four fields (its
// ssa.CanSSA limit); above that, every return and argument is a copy
// through the stack, which on a hit costs more than the policy itself.
func TestAccessFitsInRegisters(t *testing.T) {
	if size, limit := unsafe.Sizeof(Access{}), 4*unsafe.Sizeof(uintptr(0)); size > limit {
		t.Errorf("Access is %d bytes, over the %d-byte register limit", size, limit)
	}
	if n := reflect.TypeOf(Access{}).NumField(); n > 4 {
		t.Errorf("Access has %d fields, over the 4-field register limit", n)
	}
}

func TestRecorderSplitsSpatialAndTemporalHits(t *testing.T) {
	rec := NewRecorder("p", 0)
	// Miss on 0 loads {0,1,2}: 1 and 2 become pristine.
	rec.Observe(0, Access{net: netOf([]model.Item{0, 1, 2}, nil)})
	// Hit on 1: spatial (loaded by 0's miss, never accessed since).
	rec.Observe(1, Access{Hit: true})
	// Hit on 1 again: temporal now.
	rec.Observe(1, Access{Hit: true})
	// Hit on 0: temporal (0 was the requested item of its load).
	rec.Observe(0, Access{Hit: true})
	s := rec.Stats()
	if s.Accesses != 4 || s.Hits != 3 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SpatialHits != 1 || s.TemporalHits != 2 {
		t.Errorf("spatial=%d temporal=%d, want 1/2", s.SpatialHits, s.TemporalHits)
	}
	if s.ItemsLoaded != 3 {
		t.Errorf("ItemsLoaded = %d, want 3", s.ItemsLoaded)
	}
}

func TestRecorderEvictionClearsPristine(t *testing.T) {
	rec := NewRecorder("p", 0)
	rec.Observe(0, Access{net: netOf([]model.Item{0, 1}, nil)})
	// Evict 1 (pristine) on some other miss; then a later load of 1 by a
	// miss on 2 makes it pristine again.
	rec.Observe(5, Access{net: netOf([]model.Item{5}, []model.Item{1})})
	rec.Observe(2, Access{net: netOf([]model.Item{2, 1}, nil)})
	rec.Observe(1, Access{Hit: true})
	s := rec.Stats()
	if s.SpatialHits != 1 {
		t.Errorf("SpatialHits = %d, want 1", s.SpatialHits)
	}
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
}

// TestRecorderCountsHitEvictions: a hit whose Access lists an eviction,
// as an IBLP block-layer hit does when it pushes an item out of a full
// item layer, counts that eviction, so ItemsLoaded − Evictions stays
// the number of cached items.
func TestRecorderCountsHitEvictions(t *testing.T) {
	rec := NewRecorder("p", 0)
	rec.Observe(0, Access{net: netOf([]model.Item{0, 1, 2}, nil)})
	rec.Observe(1, Access{Hit: true, net: netOf(nil, []model.Item{0})})
	s := rec.Stats()
	if s.Evictions != 1 || s.ItemsLoaded-s.Evictions != 2 {
		t.Errorf("ItemsLoaded %d, Evictions %d, want 3 and 1", s.ItemsLoaded, s.Evictions)
	}
	if s.SpatialHits != 1 {
		t.Errorf("SpatialHits = %d, want 1", s.SpatialHits)
	}
}

func TestRecorderRequestedItemNotPristine(t *testing.T) {
	rec := NewRecorder("p", 0)
	rec.Observe(3, Access{net: netOf([]model.Item{3}, nil)})
	rec.Observe(3, Access{Hit: true})
	if s := rec.Stats(); s.SpatialHits != 0 || s.TemporalHits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStatsRatiosAndAdd(t *testing.T) {
	s := Stats{Accesses: 10, Hits: 7, Misses: 3}
	if s.MissRatio() != 0.3 || s.HitRatio() != 0.7 {
		t.Errorf("ratios = %v %v", s.MissRatio(), s.HitRatio())
	}
	if s.Cost() != 3 {
		t.Errorf("Cost = %d", s.Cost())
	}
	var zero Stats
	if zero.MissRatio() != 0 || zero.HitRatio() != 0 {
		t.Error("zero stats ratios nonzero")
	}
	s2 := Stats{Accesses: 5, Hits: 1, Misses: 4, SpatialHits: 1}
	s.Add(s2)
	if s.Accesses != 15 || s.Misses != 7 || s.SpatialHits != 1 {
		t.Errorf("after Add: %+v", s)
	}
}

// TestReplayStartsWarm pins Replay's warm-start contract: it replays from
// the cache's current state and never resets it, so a cold run is the
// caller's c.Reset().
func TestReplayStartsWarm(t *testing.T) {
	f := &fakeCache{script: []Access{
		{net: netOf([]model.Item{1}, nil)},
		{Hit: true},
	}}
	s, err := Replay(context.Background(), f, trace.NewSliceSource(trace.Trace{1, 1}), ReplayOptions{})
	if err != nil || s.Policy != "fake" || s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, err = %v", s, err)
	}
	if f.resets != 0 {
		t.Errorf("Replay reset the cache %d times, want 0", f.resets)
	}
}

func TestSweepCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var sum atomic.Int64
		n := 100
		err := Sweep(context.Background(), n, SweepOptions{Workers: workers}, noWorker, func(i int, _ struct{}) {
			sum.Add(int64(i))
		})
		want := int64(n * (n - 1) / 2)
		if err != nil || sum.Load() != want {
			t.Errorf("workers=%d: sum = %d, want %d (err %v)", workers, sum.Load(), want, err)
		}
	}
}

func TestSweepZeroN(t *testing.T) {
	called := false
	Sweep(context.Background(), 0, SweepOptions{Workers: 4}, noWorker, func(int, struct{}) { called = true })
	if called {
		t.Error("fn called for n=0")
	}
}

// noWorker is the stateless worker for sweeps that need no pooled state.
func noWorker() struct{} { return struct{}{} }

func TestStatsString(t *testing.T) {
	s := Stats{Policy: "x", Accesses: 2, Hits: 1, Misses: 1, TemporalHits: 1}
	if got := s.String(); got == "" {
		t.Error("empty String()")
	}
}

func TestRunSeeds(t *testing.T) {
	tr := trace.Trace{1, 2, 3, 1, 2, 3}
	// A deterministic "randomized" policy: seed is ignored, so all runs
	// agree.
	build := func(seed int64) Cache {
		return &fakeDeterministic{}
	}
	ratios, err := RunSeeds(context.Background(), build, tr, []int64{1, 2, 3})
	if err != nil || len(ratios) != 3 {
		t.Fatalf("ratios = %v, err = %v", ratios, err)
	}
	for _, r := range ratios {
		if r != 1 {
			t.Errorf("ratio = %v, want 1 (always misses)", r)
		}
	}
}

// fakeDeterministic misses every access.
type fakeDeterministic struct{ n int }

func (f *fakeDeterministic) Name() string { return "fake-det" }
func (f *fakeDeterministic) Access(it model.Item) Access {
	return Access{net: netOf([]model.Item{it}, []model.Item{it + 1000})}
}
func (f *fakeDeterministic) Contains(model.Item) bool { return false }
func (f *fakeDeterministic) Len() int                 { return 0 }
func (f *fakeDeterministic) Capacity() int            { return 1 }
func (f *fakeDeterministic) Reset()                   {}

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
