package obs_test

// Zero-allocation regression tests for the zero-cost-when-nil rule
// (see the package doc of internal/obs): every dense Access path must
// stay at 0 allocs/op with no probe attached, and the always-available
// probes (Counters, EventLog) must not push it above 0 either.

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
		"item-lru":  policy.NewItemLRU(256),
		"block-lru": policy.NewBlockLRU(512, g),
		"iblp":      core.NewIBLPEvenSplit(512, g),
		"gcm":       core.NewGCM(512, g, 1),
	}
	for _, c := range caches {
		for i := 0; i < zaUniverse*2; i++ {
			c.Access(model.Item(i % zaUniverse))
		}
	}
	return caches
}

func assertZeroAlloc(t *testing.T, name string, c cachesim.Cache) {
	t.Helper()
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		c.Access(model.Item(i % zaUniverse))
		i += 37
	}); avg != 0 {
		t.Errorf("%s: %.2f allocs/access, want 0", name, avg)
	}
}

// TestProbeZeroAllocNilProbe is the regression guard for the
// unattached case: the probe field alone must not cost an allocation.
func TestProbeZeroAllocNilProbe(t *testing.T) {
	for name, c := range densePolicies() {
		assertZeroAlloc(t, name+" (nil probe)", c)
	}
}

// TestProbeZeroAllocCountersAttached proves the cheapest probes stay
// allocation-free on the paid path too: per-kind atomic counters and
// the ring-buffer event log never allocate per event.
func TestProbeZeroAllocCountersAttached(t *testing.T) {
	for name, c := range densePolicies() {
		in, ok := c.(cachesim.Instrumented)
		if !ok {
			t.Fatalf("%s does not implement cachesim.Instrumented", name)
		}
		in.SetProbe(obs.Multi{&obs.Counters{}, obs.NewEventLog(128)})
		assertZeroAlloc(t, name+" (counters+events)", c)
	}
}

// TestProbeZeroAllocRecorder covers the recorder view: a presized
// Recorder with a Counters probe attached must observe accesses without
// allocating.
func TestProbeZeroAllocRecorder(t *testing.T) {
	g := model.NewFixed(16)
	c := core.NewIBLPEvenSplit(512, g)
	rec := cachesim.NewRecorder(c.Name(), zaUniverse)
	rec.SetProbe(&obs.Counters{})
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
