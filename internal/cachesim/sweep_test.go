package cachesim

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"gccache/internal/model"
	"gccache/internal/trace"
)

func TestParallelForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				p := recover()
				if p != "boom-37" {
					t.Errorf("workers=%d: recovered %v, want boom-37", workers, p)
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

// referenceNetChanges is the original map-per-call implementation, kept
// as the oracle for the Reconciler's in-place netting.
func referenceNetChanges(loaded, evicted []model.Item) ([]model.Item, []model.Item) {
	if len(loaded) == 0 || len(evicted) == 0 {
		return loaded, evicted
	}
	inBoth := make(map[model.Item]int, len(evicted))
	for _, e := range evicted {
		inBoth[e]++
	}
	var nl, ne []model.Item
	for _, l := range loaded {
		if inBoth[l] > 0 {
			inBoth[l]--
			continue
		}
		nl = append(nl, l)
	}
	for _, e := range evicted {
		if n := inBoth[e]; n > 0 {
			inBoth[e]--
			ne = append(ne, e)
		}
	}
	return nl, ne
}

func TestReconcilerMatchesReference(t *testing.T) {
	const universe = 64
	rng := rand.New(rand.NewSource(7))
	bounded := NewReconciler(universe)
	generic := NewReconciler(0)
	for trial := 0; trial < 5000; trial++ {
		var loaded, evicted []model.Item
		for i := rng.Intn(8); i > 0; i-- {
			loaded = append(loaded, model.Item(rng.Intn(universe)))
		}
		for i := rng.Intn(8); i > 0; i-- {
			evicted = append(evicted, model.Item(rng.Intn(universe)))
		}
		wantL, wantE := referenceNetChanges(loaded, evicted)
		check := func(name string, r *Reconciler) {
			gotL, gotE := r.NetChanges(append([]model.Item(nil), loaded...), append([]model.Item(nil), evicted...))
			if len(gotL) != len(wantL) || len(gotE) != len(wantE) {
				t.Fatalf("trial %d %s: lens (%d,%d) want (%d,%d) for loaded=%v evicted=%v",
					trial, name, len(gotL), len(gotE), len(wantL), len(wantE), loaded, evicted)
			}
			for i := range gotL {
				if gotL[i] != wantL[i] {
					t.Fatalf("trial %d %s: netLoaded %v want %v", trial, name, gotL, wantL)
				}
			}
			for i := range gotE {
				if gotE[i] != wantE[i] {
					t.Fatalf("trial %d %s: netEvicted %v want %v", trial, name, gotE, wantE)
				}
			}
		}
		check("bounded", bounded)
		check("generic", generic)
	}
}

func TestReconcilerGenerationWraparound(t *testing.T) {
	r := NewReconciler(8)
	// Seed stale stamps at an old generation, then force the uint32
	// generation counter to wrap; stale entries must not alias.
	r.NetChanges([]model.Item{1, 2}, []model.Item{2, 3})
	r.gen = ^uint32(0)
	gotL, gotE := r.NetChanges([]model.Item{1, 2}, []model.Item{2, 3})
	if len(gotL) != 1 || gotL[0] != 1 || len(gotE) != 1 || gotE[0] != 3 {
		t.Fatalf("post-wrap NetChanges = %v, %v", gotL, gotE)
	}
	if r.gen != 1 {
		t.Errorf("gen after wrap = %d, want 1", r.gen)
	}
}

func TestPackageNetChangesStillNets(t *testing.T) {
	l, e := NetChanges([]model.Item{1, 2, 3}, []model.Item{3, 4})
	if len(l) != 2 || l[0] != 1 || l[1] != 2 || len(e) != 1 || e[0] != 4 {
		t.Fatalf("NetChanges = %v, %v", l, e)
	}
}

// TestRecorderBoundedMatchesGeneric feeds an identical random access
// stream to the map-backed and bitset-backed Recorders and requires
// identical statistics.
func TestRecorderBoundedMatchesGeneric(t *testing.T) {
	const universe = 32
	rng := rand.New(rand.NewSource(11))
	gen := NewRecorder("p")
	bnd := NewRecorderBounded("p", universe)
	if bnd.pristineBits == nil {
		t.Fatal("bounded recorder fell back to map path")
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
			a = Access{Loaded: loaded, Evicted: evicted}
		}
		gen.Observe(it, a)
		bnd.Observe(it, a)
	}
	if gen.Stats() != bnd.Stats() {
		t.Fatalf("stats diverged:\n generic %+v\n bounded %+v", gen.Stats(), bnd.Stats())
	}
}

func TestRecorderBoundedFallback(t *testing.T) {
	if r := NewRecorderBounded("p", 0); r.pristineBits != nil {
		t.Error("universe 0 should fall back to the map recorder")
	}
	if r := NewRecorderBounded("p", MaxBoundedUniverse+1); r.pristineBits != nil {
		t.Error("oversized universe should fall back to the map recorder")
	}
}

func TestRecorderResetReuses(t *testing.T) {
	for _, r := range []*Recorder{NewRecorder("a"), NewRecorderBounded("a", 16)} {
		r.Observe(0, Access{Loaded: []model.Item{0, 1}})
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
	return Access{Loaded: []model.Item{it}}
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
			total += len(a.Loaded)
		}
		results[i] = total
	})
	for i, r := range results {
		if r != geo.BlockSize() {
			t.Fatalf("result[%d] = %d, want %d", i, r, geo.BlockSize())
		}
	}
}
