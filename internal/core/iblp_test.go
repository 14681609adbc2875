package core

import (
	"context"
	"math/rand"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/policy"
	"gccache/internal/trace"
)

func mustHit(t *testing.T, c cachesim.Cache, it model.Item) cachesim.Access {
	t.Helper()
	a := c.Access(it)
	if !a.Hit {
		t.Fatalf("%s: access %d: want hit", c.Name(), it)
	}
	return a
}

func mustMiss(t *testing.T, c cachesim.Cache, it model.Item) cachesim.Access {
	t.Helper()
	a := c.Access(it)
	if a.Hit {
		t.Fatalf("%s: access %d: want miss", c.Name(), it)
	}
	return a
}

func TestIBLPMissLoadsBothLayers(t *testing.T) {
	g := model.NewFixed(4)
	c := NewIBLP(2, 8, g)
	a := mustMiss(t, c, 1)
	// Overall: item 1 (item layer + block copy) plus siblings 0,2,3.
	if len(a.Loaded()) != 4 {
		t.Fatalf("Loaded = %v, want 4 distinct items", a.Loaded())
	}
	for it := model.Item(0); it < 4; it++ {
		if !c.Contains(it) {
			t.Errorf("missing %d", it)
		}
	}
	// Siblings give spatial hits.
	mustHit(t, c, 2)
	mustHit(t, c, 3)
}

func TestIBLPItemLayerHitDoesNotReorderBlockLayer(t *testing.T) {
	g := model.NewFixed(2)
	c := NewIBLP(2, 4, g) // block layer: 2 block frames
	mustMiss(t, c, 0)     // block 0 in block layer; 0 in item layer
	mustMiss(t, c, 2)     // block 1; item layer {2,0}; block LRU: [1, 0]
	// Hammer item 0 via item-layer hits: block 0 must NOT be promoted.
	for j := 0; j < 5; j++ {
		mustHit(t, c, 0)
	}
	// New block 2 evicts the block-layer LRU, which must be block 0
	// (unpromoted despite the hits on item 0).
	mustMiss(t, c, 4)
	if c.Contains(1) {
		t.Error("block 0 survived in block layer: item hits reordered it")
	}
	// Item 0 itself survives in the item layer.
	if !c.Contains(0) {
		t.Error("item 0 lost from item layer")
	}
}

func TestIBLPPromoteAllAblationDiffers(t *testing.T) {
	g := model.NewFixed(2)
	c := NewIBLPPromoteAll(2, 4, g)
	mustMiss(t, c, 0)
	mustMiss(t, c, 2)
	for j := 0; j < 5; j++ {
		mustHit(t, c, 0) // promotes block 0 in the ablation variant
	}
	mustMiss(t, c, 4) // evicts block 1 (LRU after promotion of block 0)
	if c.Contains(3) {
		t.Error("block 1 should have been evicted in promote-all variant")
	}
	if !c.Contains(1) {
		t.Error("block 0 should have survived in promote-all variant")
	}
}

func TestIBLPBlockLayerHitPromotesAndFillsItemLayer(t *testing.T) {
	g := model.NewFixed(2)
	c := NewIBLP(1, 4, g)
	mustMiss(t, c, 0) // item layer {0}, block layer {block0}
	mustMiss(t, c, 2) // item layer {2}, block layer {block1, block0}
	// 1 is only in the block layer: hit there, promote block 0.
	mustHit(t, c, 1)
	// Now block layer LRU is block 1; miss on block 2 evicts it.
	mustMiss(t, c, 4)
	if c.Contains(3) {
		t.Error("block 1 not evicted")
	}
	if !c.Contains(0) {
		t.Error("block 0 lost despite promotion")
	}
	// 1 was copied into the item layer (size 1), so it's present even
	// if... verify it is present at all.
	if !c.Contains(1) {
		t.Error("1 lost")
	}
}

func TestIBLPNeitherInclusiveNorExclusive(t *testing.T) {
	g := model.NewFixed(2)
	c := NewIBLP(1, 2, g)
	mustMiss(t, c, 0) // 0 in both layers; 1 only in block layer
	// Evict block 0 from block layer by loading block 1.
	mustMiss(t, c, 2) // item layer (size 1) now holds 2; block layer holds block 1
	// 0 was in the item layer, but item layer size 1 means it was
	// displaced by 2. 1 was only in block layer → gone with block 0.
	if c.Contains(0) || c.Contains(1) {
		t.Error("block 0 contents should be fully gone")
	}
	if !c.Contains(2) || !c.Contains(3) {
		t.Error("block 1 contents missing")
	}
}

func TestIBLPItemLayerSurvivesBlockEviction(t *testing.T) {
	g := model.NewFixed(2)
	c := NewIBLP(4, 2, g) // item layer 4, block layer 1 frame
	mustMiss(t, c, 0)     // 0 in item layer + block 0 in block layer
	mustMiss(t, c, 2)     // block 1 replaces block 0; 0 still in item layer
	if !c.Contains(0) {
		t.Error("0 lost: item layer must retain it")
	}
	if c.Contains(1) {
		t.Error("1 should be gone (was only in block layer)")
	}
}

func TestIBLPZeroBlockLayerIsItemCache(t *testing.T) {
	g := model.NewFixed(4)
	rng := rand.New(rand.NewSource(4))
	tr := make(trace.Trace, 4000)
	for i := range tr {
		tr[i] = model.Item(rng.Intn(64))
	}
	a := replay(t, NewIBLP(10, 0, g), tr)
	b := replay(t, policy.NewItemLRU(10), tr)
	if a.Misses != b.Misses {
		t.Errorf("IBLP(i=k,b=0) misses %d != ItemLRU %d", a.Misses, b.Misses)
	}
}

func TestIBLPZeroItemLayerIsBlockCache(t *testing.T) {
	g := model.NewFixed(4)
	rng := rand.New(rand.NewSource(5))
	tr := make(trace.Trace, 4000)
	for i := range tr {
		tr[i] = model.Item(rng.Intn(64))
	}
	a := replay(t, NewIBLP(0, 12, g), tr)
	b := replay(t, policy.NewBlockLRU(12, g), tr)
	if a.Misses != b.Misses {
		t.Errorf("IBLP(i=0) misses %d != BlockLRU %d", a.Misses, b.Misses)
	}
}

func TestIBLPLenCountsDistinctItems(t *testing.T) {
	g := model.NewFixed(2)
	c := NewIBLP(2, 2, g)
	mustMiss(t, c, 0)
	// Item layer: {0}; block layer: {0,1}. Distinct = 2.
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if c.Capacity() != 4 {
		t.Errorf("Capacity = %d, want 4", c.Capacity())
	}
}

func TestIBLPResetAndAccessors(t *testing.T) {
	g := model.NewFixed(2)
	c := NewIBLP(3, 4, g)
	if c.ItemLayerSize() != 3 || c.BlockLayerSize() != 4 {
		t.Error("layer accessors")
	}
	c.Access(0)
	c.Reset()
	if c.Len() != 0 || c.Contains(0) {
		t.Error("Reset")
	}
	if c.Name() == "" {
		t.Error("Name empty")
	}
}

func TestIBLPEvenSplit(t *testing.T) {
	g := model.NewFixed(2)
	c := NewIBLPEvenSplit(7, g)
	if c.ItemLayerSize() != 4 || c.BlockLayerSize() != 3 {
		t.Errorf("split = %d/%d", c.ItemLayerSize(), c.BlockLayerSize())
	}
}

func TestIBLPPanics(t *testing.T) {
	g := model.NewFixed(2)
	for _, fn := range []func(){
		func() { NewIBLP(-1, 4, g) },
		func() { NewIBLP(0, 0, g) },
		func() { NewIBLP(1, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestIBLPSpatialWorkloadBeatsItemLRU(t *testing.T) {
	// A workload with heavy spatial locality: sequential sweeps over a
	// region larger than the cache. IBLP's block layer turns most
	// accesses into spatial hits; ItemLRU misses every time.
	g := model.NewFixed(8)
	var tr trace.Trace
	for rep := 0; rep < 4; rep++ {
		for it := model.Item(0); it < 512; it++ {
			tr = append(tr, it)
		}
	}
	iblp := replay(t, NewIBLP(32, 32, g), tr)
	lru := replay(t, policy.NewItemLRU(64), tr)
	if iblp.Misses >= lru.Misses {
		t.Errorf("IBLP %d misses, ItemLRU %d: expected IBLP to win on scans",
			iblp.Misses, lru.Misses)
	}
	if iblp.SpatialHits == 0 {
		t.Error("no spatial hits on a scan workload?")
	}
}

func TestIBLPTemporalWorkloadBeatsBlockLRU(t *testing.T) {
	// One hot item per block, more hot blocks than BlockLRU frames but
	// fewer items than IBLP's item layer: pollution kills BlockLRU.
	g := model.NewFixed(8)
	var tr trace.Trace
	hot := []model.Item{0, 8, 16, 24, 32, 40, 48, 56}
	for rep := 0; rep < 200; rep++ {
		tr = append(tr, hot...)
	}
	iblp := replay(t, NewIBLP(16, 16, g), tr)
	blk := replay(t, policy.NewBlockLRU(32, g), tr)
	if iblp.Misses >= blk.Misses {
		t.Errorf("IBLP %d misses, BlockLRU %d: expected IBLP to win on hot items",
			iblp.Misses, blk.Misses)
	}
}

func TestIBLPCapacityInvariant(t *testing.T) {
	g := model.NewFixed(4)
	c := NewIBLP(5, 9, g)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 8000; i++ {
		c.Access(model.Item(rng.Intn(100)))
		if c.Len() > c.Capacity() {
			t.Fatalf("Len %d > Capacity %d", c.Len(), c.Capacity())
		}
	}
}

// lastRecord is a probe that keeps a copy of the last record it saw.
type lastRecord struct {
	r       obs.Record
	evicted []model.Item
}

func (l *lastRecord) Observe(r *obs.Record) {
	l.r = *r
	l.evicted = append(l.evicted[:0], r.Evicted...)
	l.r.Loaded, l.r.Evicted = nil, l.evicted
}

// A block-layer hit can push an item out of the item layer. Its access
// record must say the block layer served it and list the items it
// evicted, as a resize's record lists the items the resize pushed out:
// requests 4, 8, 9 under B=4 evict item 4 on the hit to 9, a random
// tail repeats such hits, and every 500 requests the item layer is
// resized.
func TestBlockLayerHitRecordsListEvictions(t *testing.T) {
	g := model.NewFixed(4)
	tr := trace.Trace{4, 8, 9}
	rng := rand.New(rand.NewSource(3))
	for range 3000 {
		tr = append(tr, model.Item(rng.Intn(64)))
	}
	// resident lists the items of [0, 64) that c holds.
	resident := func(c cachesim.Cache) map[model.Item]bool {
		in := map[model.Item]bool{}
		for x := range model.Item(64) {
			if c.Contains(x) {
				in[x] = true
			}
		}
		return in
	}
	for _, c := range []interface {
		cachesim.Cache
		cachesim.Instrumented
		cachesim.LayerResizable
	}{
		newIBLP(2, 4, g, 64),
		NewIBLP(2, 4, g),
		NewAdaptiveIBLP(8, g),
	} {
		last := &lastRecord{}
		c.SetProbe(last)
		rec := cachesim.NewRecorder(c.Name(), 0)
		rec.SetProbe(last)
		hitEvictions, resizeEvictions := 0, 0
		for i, it := range tr {
			before := resident(c)
			if i%500 == 499 {
				target := c.Capacity() - c.ItemLayerTarget()
				if target == c.ItemLayerTarget() {
					target = 0
				}
				c.SetItemLayerTarget(target)
				if last.r.Kind != obs.EvLayerResize || int(last.r.N) != target {
					t.Fatalf("%s: resize to %d reported as %+v", c.Name(), target, last.r)
				}
				resizeEvictions += checkEvicted(t, c, before, last.evicted)
				before = resident(c)
			}
			rec.Observe(it, c.Access(it))
			if last.r.Item != it || last.r.Class == 0 {
				t.Fatalf("%s: request %d for item %d reported as %+v", c.Name(), i, it, last.r)
			}
			if last.r.Kind == obs.EvHitBlockLayer {
				hitEvictions += checkEvicted(t, c, before, last.evicted)
			}
		}
		if hitEvictions == 0 || resizeEvictions == 0 {
			t.Errorf("%s: block-layer hits evicted %d items and resizes %d; the trace does not exercise both paths",
				c.Name(), hitEvictions, resizeEvictions)
		}
	}
}

// checkEvicted fails unless evicted lists exactly the items of before
// that c no longer holds, and returns how many it lists.
func checkEvicted(t *testing.T, c cachesim.Cache, before map[model.Item]bool, evicted []model.Item) int {
	t.Helper()
	gone := map[model.Item]bool{}
	for x := range before {
		if !c.Contains(x) {
			gone[x] = true
		}
	}
	for _, x := range evicted {
		if !gone[x] {
			t.Fatalf("%s: record lists item %d as evicted; present before: %v, now: %v", c.Name(), x, before[x], c.Contains(x))
		}
		delete(gone, x)
	}
	if len(gone) != 0 {
		t.Fatalf("%s: record leaves out evicted items %v", c.Name(), gone)
	}
	return len(evicted)
}

// replay runs tr through c from its current state.
func replay(t testing.TB, c cachesim.Cache, tr trace.Trace) cachesim.Stats {
	t.Helper()
	st, err := cachesim.Replay(context.Background(), c, trace.NewSliceSource(tr), cachesim.ReplayOptions{})
	if err != nil {
		t.Error(err)
	}
	return st
}
