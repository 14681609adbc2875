package obs_test

// Differential tests for the no-interference rule: attaching any probe
// must leave policy decisions byte-identical. Each dense policy is run
// twice over the same randomized trace — once bare, once with the full
// probe suite plus a probed recorder — and every per-access decision
// and the final recorder totals are compared.

import (
	"math/rand"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/policy"
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
// mismatch at the end.
func runDifferential(t *testing.T, bare, probed cachesim.Cache, tr []model.Item, universe int) {
	t.Helper()
	suite, err := obs.NewSuite("all", universe)
	if err != nil {
		t.Fatal(err)
	}
	in, ok := probed.(cachesim.Instrumented)
	if !ok {
		t.Fatalf("%s does not implement cachesim.Instrumented", probed.Name())
	}
	in.SetProbe(suite)

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

	// Cross-check the event stream against the ground-truth recorder:
	// both views must have counted every access exactly once, and the
	// unit-cost rule (one block load per miss) must hold.
	if got := suite.Counters.RecorderAccesses(); got != int64(len(tr)) {
		t.Errorf("recorder view counted %d accesses, want %d", got, len(tr))
	}
	if got := suite.Counters.PolicyAccesses(); got != int64(len(tr)) {
		t.Errorf("policy view counted %d accesses, want %d", got, len(tr))
	}
	if loads, misses := suite.Counters.Get(obs.EvBlockLoad), int64(sp.Misses); loads != misses {
		t.Errorf("block loads %d != recorder misses %d (Definition 1)", loads, misses)
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
