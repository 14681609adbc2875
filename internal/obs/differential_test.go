package obs_test

// Differential tests for the no-interference rule: attaching any probe
// must leave policy decisions byte-identical. Each dense policy is run
// twice over the same randomized trace — once bare, once with the full
// probe suite on its recorder and on the policy — and every per-access
// decision and the final recorder totals are compared. The identity
// tests check what the suite counts against the recorder's statistics.

import (
	"context"
	"math/rand"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/concurrent"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/policy"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

const diffOps = 20000

// diffTrace mixes sequential block scans with random point accesses so
// every event kind fires: spatial hits, evictions, phase resets.
func diffTrace(rng *rand.Rand, universe, n, blockSize int) []model.Item {
	tr := make([]model.Item, 0, n)
	for len(tr) < n {
		if rng.Intn(3) == 0 {
			blk := rng.Intn(universe / blockSize)
			for j := 0; j < blockSize && len(tr) < n; j++ {
				tr = append(tr, model.Item(blk*blockSize+j))
			}
		} else {
			tr = append(tr, model.Item(rng.Intn(universe)))
		}
	}
	return tr
}

func sameItems(a, b []model.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runDifferential drives bare and probed through tr in lockstep,
// failing on the first diverging Access and on any recorder-total
// mismatch at the end. The suite hears probed's accesses through its
// recorder and its lifecycle records from probed itself.
func runDifferential(t *testing.T, bare, probed cachesim.Cache, tr []model.Item, universe int) {
	t.Helper()
	suite, err := obs.NewSuite("all")
	if err != nil {
		t.Fatal(err)
	}
	if in, ok := probed.(cachesim.Instrumented); ok {
		in.SetProbe(suite)
	}

	recBare := cachesim.NewRecorder(bare.Name(), universe)
	recProbed := cachesim.NewRecorder(probed.Name(), universe)
	recProbed.SetProbe(suite)

	for i, it := range tr {
		a := bare.Access(it)
		b := probed.Access(it)
		if a.Hit != b.Hit || !sameItems(a.Loaded(), b.Loaded()) || !sameItems(a.Evicted(), b.Evicted()) {
			t.Fatalf("access %d (item %d) diverged: bare %+v probed %+v", i, it, a, b)
		}
		recBare.Observe(it, a)
		recProbed.Observe(it, b)
	}
	sb, sp := recBare.Stats(), recProbed.Stats()
	sb.Policy, sp.Policy = "", ""
	if sb != sp {
		t.Fatalf("recorder totals diverged:\nbare   %+v\nprobed %+v", sb, sp)
	}
	checkIdentities(t, probed.Name(), suite.Counters, sp, -1)
}

// checkIdentities checks the suite's counts against the recorder's
// statistics st: every access counted once by what served it and once
// by its class, one block load per miss (Definition 1), and the loads
// and evictions of the Loaded and Evicted lists. With length ≥ 0, the
// loads less the evictions must also leave length items resident.
func checkIdentities(t *testing.T, name string, c *obs.Counters, st cachesim.Stats, length int) {
	t.Helper()
	served := c.Get(obs.EvHit) + c.Get(obs.EvHitItemLayer) + c.Get(obs.EvHitBlockLayer) + c.Get(obs.EvBlockLoad)
	classed := c.Get(obs.EvHitTemporal) + c.Get(obs.EvHitSpatial) + c.Get(obs.EvMiss)
	if served != st.Accesses || classed != st.Accesses {
		t.Errorf("%s: %d accesses by what served them and %d by class, want %d", name, served, classed, st.Accesses)
	}
	if loads := c.Get(obs.EvBlockLoad); loads != st.Misses {
		t.Errorf("%s: block loads %d != recorder misses %d (Definition 1)", name, loads, st.Misses)
	}
	if c.ItemsLoaded() != c.Get(obs.EvLoad) || c.ItemsLoaded() != st.ItemsLoaded {
		t.Errorf("%s: items-loaded %d, load %d, want both %d", name, c.ItemsLoaded(), c.Get(obs.EvLoad), st.ItemsLoaded)
	}
	if evicted := c.Get(obs.EvEvict); evicted != st.Evictions {
		t.Errorf("%s: evict %d, want %d", name, evicted, st.Evictions)
	}
	if length >= 0 && c.Get(obs.EvLoad)-c.Get(obs.EvEvict) != int64(length) {
		t.Errorf("%s: loads %d - evictions %d != Len() %d", name, c.Get(obs.EvLoad), c.Get(obs.EvEvict), length)
	}
}

// TestProbeIdentitiesEveryPolicy replays a block-run trace through every
// core.ByName policy on a Sharded of 1, 2 and 8 shards with the suite
// attached, and checks the suite's counts against the merged recorder
// statistics and the cache's length.
func TestProbeIdentitiesEveryPolicy(t *testing.T) {
	const k, B = 128, 8
	g := model.NewFixed(B)
	tr := diffTrace(rand.New(rand.NewSource(46)), 1<<10, diffOps/4, B)
	for _, name := range core.PolicyNames() {
		build, err := core.ByName(name, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 8} {
			s, err := concurrent.NewSharded(shards, k, g, build)
			if err != nil {
				t.Fatal(err)
			}
			suite, err := obs.NewSuite("counters")
			if err != nil {
				t.Fatal(err)
			}
			s.SetProbe(suite)
			for _, it := range tr {
				s.Access(it)
			}
			st := s.Stats()
			if st.Accesses != int64(len(tr)) {
				t.Fatalf("%s: %d accesses recorded, want %d", s.Name(), st.Accesses, len(tr))
			}
			checkIdentities(t, s.Name(), suite.Counters, st, s.Len())
		}
	}
}

// TestProbeReplayShardedRecordsOnce: a Replay through a Sharded cache
// with a probe gives it one record per access. The shards' recorders
// report each access, so the replay's own recorder must not report it
// again; the counts then equal the replay's statistics.
func TestProbeReplayShardedRecordsOnce(t *testing.T) {
	const B = 8
	g := model.NewFixed(B)
	tr, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 64, BlockSize: B, MeanRunLength: 4, ZipfS: 1.2, Length: 1000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := concurrent.NewSharded(2, 64, g, func(k int) cachesim.Cache { return core.NewIBLPEvenSplit(k, g) })
	if err != nil {
		t.Fatal(err)
	}
	var c obs.Counters
	st, err := cachesim.Replay(context.Background(), s, trace.NewSliceSource(tr), cachesim.ReplayOptions{Probe: &c})
	if err != nil {
		t.Fatal(err)
	}
	got := [...]int64{c.Get(obs.EvHitTemporal), c.Get(obs.EvHitSpatial), c.Get(obs.EvMiss), c.Get(obs.EvBlockLoad)}
	want := [...]int64{st.TemporalHits, st.SpatialHits, st.Misses, st.Misses}
	if got != want {
		t.Errorf("probe counted %v temporal, spatial, miss and block-load records; Stats reads %v", got, want)
	}
	checkIdentities(t, s.Name(), &c, st, s.Len())
}

// TestProbeWindowHoldsWRequests: every completed window of a Windowed
// probe attached to a replay holds exactly W accesses, the first too.
func TestProbeWindowHoldsWRequests(t *testing.T) {
	const w = 10
	g := model.NewFixed(8)
	tr := diffTrace(rand.New(rand.NewSource(47)), 1<<10, 100, 8)
	win := obs.NewWindowed(w, 16)
	c := core.NewIBLPEvenSplit(64, g)
	if _, err := cachesim.Replay(context.Background(), c, trace.NewSliceSource(tr), cachesim.ReplayOptions{Probe: win}); err != nil {
		t.Fatal(err)
	}
	hist := win.History()
	if len(hist) != len(tr)/w {
		t.Fatalf("%d completed windows, want %d", len(hist), len(tr)/w)
	}
	for i, n := range hist {
		served := n[obs.EvHit] + n[obs.EvHitItemLayer] + n[obs.EvHitBlockLayer] + n[obs.EvBlockLoad]
		classed := n[obs.EvHitTemporal] + n[obs.EvHitSpatial] + n[obs.EvMiss]
		if served != w || classed != w {
			t.Errorf("window %d holds %d accesses by what served them and %d by class, want %d", i, served, classed, w)
		}
	}
}

func TestProbeDifferentialItemLRU(t *testing.T) {
	const universe = 1 << 10
	rng := rand.New(rand.NewSource(41))
	tr := diffTrace(rng, universe, diffOps, 8)
	runDifferential(t, policy.NewItemLRU(128),
		policy.NewItemLRU(128), tr, universe)
}

func TestProbeDifferentialBlockLRU(t *testing.T) {
	const universe = 1 << 10
	g := model.NewFixed(8)
	rng := rand.New(rand.NewSource(42))
	tr := diffTrace(rng, universe, diffOps, 8)
	runDifferential(t, policy.NewBlockLRU(128, g),
		policy.NewBlockLRU(128, g), tr, universe)
}

func TestProbeDifferentialIBLP(t *testing.T) {
	const universe = 1 << 10
	g := model.NewFixed(8)
	rng := rand.New(rand.NewSource(43))
	tr := diffTrace(rng, universe, diffOps, 8)
	runDifferential(t, core.NewIBLPEvenSplit(128, g),
		core.NewIBLPEvenSplit(128, g), tr, universe)
}

func TestProbeDifferentialGCM(t *testing.T) {
	const universe = 1 << 10
	g := model.NewFixed(8)
	rng := rand.New(rand.NewSource(44))
	tr := diffTrace(rng, universe, diffOps, 8)
	runDifferential(t, core.NewGCM(128, g, 7),
		core.NewGCM(128, g, 7), tr, universe)
}

func TestProbeDifferentialAdaptiveIBLP(t *testing.T) {
	const universe = 1 << 10
	g := model.NewFixed(8)
	rng := rand.New(rand.NewSource(45))
	tr := diffTrace(rng, universe, diffOps, 8)
	runDifferential(t, core.NewAdaptiveIBLP(128, g),
		core.NewAdaptiveIBLP(128, g), tr, universe)
}
