package obs_test

// Zero-allocation regression tests for the zero-cost-when-nil rule
// (see the package doc of internal/obs): every dense Access path must
// stay at 0 allocs/op with no probe attached, and the always-available
// probes (Counters, EventLog), attached through a recorder, must not
// push it above 0 either.

import (
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/policy"
)

const zaUniverse = 1 << 12

// densePolicies builds every dense-array policy at steady state, its
// arrays grown over the universe.
func densePolicies() map[string]cachesim.Cache {
	g := model.NewFixed(16)
	caches := map[string]cachesim.Cache{
		"item-lru":      policy.NewItemLRU(256),
		"block-lru":     policy.NewBlockLRU(512, g),
		"iblp":          core.NewIBLPEvenSplit(512, g),
		"gcm":           core.NewGCM(512, g, 1),
		"adaptive-iblp": core.NewAdaptiveIBLP(512, g),
		// k < B: every block-layer admission is a truncated copy.
		"adaptive-iblp-trunc": core.NewAdaptiveIBLP(8, g),
	}
	for _, c := range caches {
		for i := 0; i < zaUniverse*2; i++ {
			c.Access(model.Item(i % zaUniverse))
		}
	}
	return caches
}

// assertZeroAlloc replays requests through c, and rec when it is not
// nil, failing unless they allocate nothing.
func assertZeroAlloc(t *testing.T, name string, c cachesim.Cache, rec *cachesim.Recorder) {
	t.Helper()
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		it := model.Item(i % zaUniverse)
		a := c.Access(it)
		if rec != nil {
			rec.Observe(it, a)
		}
		i += 37
	}); avg != 0 {
		t.Errorf("%s: %.2f allocs/access, want 0", name, avg)
	}
}

// TestProbeZeroAllocNilProbe is the regression guard for the
// unattached case: the probe field alone must not cost an allocation.
func TestProbeZeroAllocNilProbe(t *testing.T) {
	for name, c := range densePolicies() {
		assertZeroAlloc(t, name+" (nil probe)", c, nil)
	}
}

// TestProbeZeroAllocCountersAttached proves the cheapest probes stay
// allocation-free on the paid path too: attached to a recorder, which
// gives them every access, and to the policy when it reports lifecycle
// records, per-kind atomic counters and the ring-buffer event log never
// allocate per record.
func TestProbeZeroAllocCountersAttached(t *testing.T) {
	for name, c := range densePolicies() {
		p := obs.Multi{&obs.Counters{}, obs.NewEventLog(128)}
		if in, ok := c.(cachesim.Instrumented); ok {
			in.SetProbe(p)
		}
		rec := cachesim.NewRecorder(c.Name(), zaUniverse)
		rec.SetProbe(p)
		for i := 0; i < zaUniverse*2; i++ {
			rec.Observe(model.Item(i%zaUniverse), c.Access(model.Item(i%zaUniverse)))
		}
		assertZeroAlloc(t, name+" (counters+events)", c, rec)
	}
}

// TestProbeZeroAllocRecorder covers the whole suite: a presized
// Recorder with every probe of the "all" suite attached must observe
// accesses without allocating once the probes' tables have grown.
func TestProbeZeroAllocRecorder(t *testing.T) {
	g := model.NewFixed(16)
	c := core.NewIBLPEvenSplit(512, g)
	suite, err := obs.NewSuite("all")
	if err != nil {
		t.Fatal(err)
	}
	c.SetProbe(suite)
	rec := cachesim.NewRecorder(c.Name(), zaUniverse)
	rec.SetProbe(suite)
	for i := 0; i < zaUniverse*2; i++ {
		rec.Observe(model.Item(i%zaUniverse), c.Access(model.Item(i%zaUniverse)))
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		it := model.Item(i % zaUniverse)
		rec.Observe(it, c.Access(it))
		i += 37
	}); avg != 0 {
		t.Errorf("probed recorder: %.2f allocs/access, want 0", avg)
	}
}
