package cachesim

import (
	"context"
	"sync/atomic"
	"testing"

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

func TestRecorderSplitsSpatialAndTemporalHits(t *testing.T) {
	rec := NewRecorder("p")
	// Miss on 0 loads {0,1,2}: 1 and 2 become pristine.
	rec.Observe(0, Access{Loaded: []model.Item{0, 1, 2}})
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
	rec := NewRecorder("p")
	rec.Observe(0, Access{Loaded: []model.Item{0, 1}})
	// Evict 1 (pristine) on some other miss; then a later load of 1 by a
	// miss on 2 makes it pristine again.
	rec.Observe(5, Access{Loaded: []model.Item{5}, Evicted: []model.Item{1}})
	rec.Observe(2, Access{Loaded: []model.Item{2, 1}})
	rec.Observe(1, Access{Hit: true})
	s := rec.Stats()
	if s.SpatialHits != 1 {
		t.Errorf("SpatialHits = %d, want 1", s.SpatialHits)
	}
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
}

func TestRecorderRequestedItemNotPristine(t *testing.T) {
	rec := NewRecorder("p")
	rec.Observe(3, Access{Loaded: []model.Item{3}})
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

// TestRunAndRunCold pins Replay's warm-start contract: it replays from
// the cache's current state and never resets it, so a cold run is the
// caller's c.Reset().
func TestRunAndRunCold(t *testing.T) {
	f := &fakeCache{script: []Access{
		{Loaded: []model.Item{1}},
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

func TestParallelForCoversAllIndices(t *testing.T) {
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

func TestParallelForZeroN(t *testing.T) {
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
	return Access{Loaded: []model.Item{it}, Evicted: []model.Item{it + 1000}}
}
func (f *fakeDeterministic) Contains(model.Item) bool { return false }
func (f *fakeDeterministic) Len() int                 { return 0 }
func (f *fakeDeterministic) Capacity() int            { return 1 }
func (f *fakeDeterministic) Reset()                   {}
