package gccache_test

import (
	"context"
	"math"
	"testing"

	"gccache"
)

// The facade tests exercise the public API end to end, the way the
// examples and a downstream user would.

func TestQuickstartFlow(t *testing.T) {
	g := gccache.NewFixedGeometry(8)
	c := gccache.NewIBLP(32, 32, g)
	tr, err := gccache.GenerateWorkload("blockruns:blocks=64,B=8,run=4,len=20000", 1)
	if err != nil {
		t.Fatal(err)
	}
	st := replay(t, c, tr)
	if st.Accesses != 20000 {
		t.Fatalf("accesses = %d", st.Accesses)
	}
	if st.Hits+st.Misses != st.Accesses || st.SpatialHits+st.TemporalHits != st.Hits {
		t.Fatalf("stats don't add up: %+v", st)
	}
	if st.SpatialHits == 0 {
		t.Error("block-run workload should produce spatial hits")
	}
}

func TestFacadePoliciesShareInterface(t *testing.T) {
	g := gccache.NewFixedGeometry(4)
	caches := []gccache.Cache{
		gccache.NewItemLRU(16),
		gccache.NewBlockLRU(16, g),
		gccache.NewFIFO(16),
		gccache.NewMarking(16, 1),
		gccache.NewGCM(16, g, 1),
		gccache.NewIBLP(8, 8, g),
		gccache.NewIBLPEvenSplit(16, g),
		gccache.NewIBLPTuned(16, 4, g),
		gccache.NewAThreshold(16, 2, g),
		gccache.NewBlockLoadItemEvict(16, g),
	}
	tr, err := gccache.GenerateWorkload("zipf:n=64,s=1.3,len=5000", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caches {
		st := replay(t, c, tr)
		if st.Accesses != 5000 {
			t.Errorf("%s: accesses %d", c.Name(), st.Accesses)
		}
		if c.Len() > c.Capacity() {
			t.Errorf("%s: over capacity", c.Name())
		}
	}
}

func TestFacadeBoundsAgree(t *testing.T) {
	k, h, B := 4096.0, 256.0, 64.0
	if gccache.SleatorTarjan(k, h) > gccache.GeneralLowerBound(k, h, B, 1) {
		t.Error("ST above GC bound")
	}
	i := gccache.OptimalItemLayer(k, h, B)
	ub := gccache.IBLPUpperBound(i, k-i, h, B)
	if math.Abs(ub-gccache.IBLPKnownSizeRatio(k, h, B)) > 1e-9*ub {
		t.Error("facade bound wrappers disagree")
	}
	if gccache.ItemCacheLowerBound(k, h, B) <= 1 || gccache.BlockCacheLowerBound(k, h, B) <= 1 {
		t.Error("degenerate lower bounds")
	}
}

func TestFacadeOfflineAndLocality(t *testing.T) {
	g := gccache.NewFixedGeometry(4)
	tr, err := gccache.GenerateWorkload("sequential:len=64", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := gccache.Belady(tr, 8); got != 64 {
		t.Errorf("Belady = %d", got)
	}
	est := gccache.EstimateOptimal(tr, g, 8)
	if est.Lower != 16 || est.Upper != 16 {
		t.Errorf("estimate = %+v, want exactly 16 (one per block)", est)
	}
	exact, err := gccache.ExactOptimal(context.Background(), tr[:16], g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact || exact.Incumbent != 4 {
		t.Errorf("exact = %+v, want certified 4", exact)
	}
	f := gccache.MeasureItemLocality(tr, []int{4, 16})
	gp := gccache.MeasureBlockLocality(tr, g, []int{4, 16})
	if f.Eval(16) != 16 || gp.Eval(16) != 5 {
		t.Errorf("profiles: f(16)=%v g(16)=%v", f.Eval(16), gp.Eval(16))
	}
	lb := gccache.FaultRateLowerBound(8, f, gp)
	if math.IsNaN(lb) || lb <= 0 {
		t.Errorf("fault LB = %v", lb)
	}
	ub := gccache.IBLPFaultRateUpperBound(64, 64, 4, f, gp)
	if math.IsNaN(ub) || ub <= 0 {
		t.Errorf("fault UB = %v", ub)
	}
}

func TestFacadeAdversaries(t *testing.T) {
	B := 8
	g := gccache.NewFixedGeometry(B)
	k, h := 128, 33
	res, err := gccache.RunItemCacheAdversary(gccache.NewItemLRU(k), g, h, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio() < 0.8*res.BoundClaim {
		t.Errorf("item adversary ratio %.2f vs claim %.2f", res.Ratio(), res.BoundClaim)
	}
	res, err = gccache.RunBlockCacheAdversary(gccache.NewBlockLRU(256, g), g, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio() < 0.8*res.BoundClaim {
		t.Errorf("block adversary ratio %.2f vs claim %.2f", res.Ratio(), res.BoundClaim)
	}
	res, err = gccache.RunGeneralAdversary(gccache.NewAThreshold(k, 2, g), g, h, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio() < 0.8*res.BoundClaim {
		t.Errorf("general adversary ratio %.2f vs claim %.2f", res.Ratio(), res.BoundClaim)
	}
}

func TestNewTableGeometry(t *testing.T) {
	g, err := gccache.NewTableGeometry([][]gccache.Item{{1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.BlockOf(2) != g.BlockOf(1) || g.BlockOf(3) == g.BlockOf(1) {
		t.Error("table geometry wrong")
	}
	if _, err := gccache.NewTableGeometry([][]gccache.Item{{1}, {1}}); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestIBLPTunedClampsDegenerate(t *testing.T) {
	g := gccache.NewFixedGeometry(64)
	// h close to k: sizing must stay within [0, k].
	c := gccache.NewIBLPTuned(100, 99, g)
	if c.ItemLayerSize()+c.BlockLayerSize() != 100 {
		t.Errorf("layers %d+%d != 100", c.ItemLayerSize(), c.BlockLayerSize())
	}
}

// replay runs tr through c from its current state.
func replay(t *testing.T, c gccache.Cache, tr gccache.Trace) gccache.Stats {
	t.Helper()
	st, err := gccache.Replay(context.Background(), c, gccache.NewSliceSource(tr), gccache.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}
