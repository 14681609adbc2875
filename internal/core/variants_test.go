package core

import (
	"math/rand"
	"testing"

	"gccache/internal/model"
	"gccache/internal/policy"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

func TestInclusiveBehavesLikeSmallerBlockCache(t *testing.T) {
	g := model.NewFixed(4)
	rng := rand.New(rand.NewSource(2))
	tr := make(trace.Trace, 5000)
	for i := range tr {
		tr[i] = model.Item(rng.Intn(100))
	}
	incl := replay(t, NewIBLPInclusive(16, 16, g), tr)
	blk := replay(t, policy.NewBlockLRU(16, g), tr)
	if incl.Misses != blk.Misses {
		t.Errorf("inclusive(16,16) %d misses != BlockLRU(16) %d — the item layer should contribute nothing",
			incl.Misses, blk.Misses)
	}
	// The real IBLP with the same budget does strictly better here.
	real := replay(t, NewIBLP(16, 16, g), tr)
	if real.Misses >= incl.Misses {
		t.Errorf("iblp %d misses should beat inclusive %d", real.Misses, incl.Misses)
	}
}

func TestInclusiveCapacityAndName(t *testing.T) {
	g := model.NewFixed(4)
	c := NewIBLPInclusive(8, 16, g)
	if c.Capacity() != 24 {
		t.Errorf("Capacity = %d, want 24", c.Capacity())
	}
	if c.Name() == "" {
		t.Error("Name")
	}
	c.Access(3)
	if !c.Contains(3) || c.Len() == 0 {
		t.Error("basic access")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("Reset")
	}
}

func TestExclusiveNeverDuplicates(t *testing.T) {
	g := model.NewFixed(4)
	c := NewIBLPExclusive(4, 8, g)
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 4000; step++ {
		c.Access(model.Item(rng.Intn(64)))
		if c.Len() > c.Capacity() {
			t.Fatalf("step %d: Len %d > Capacity %d", step, c.Len(), c.Capacity())
		}
	}
}

func TestExclusiveMigratesOnBlockHit(t *testing.T) {
	g := model.NewFixed(4)
	c := NewIBLPExclusive(2, 4, g)
	mustMiss(t, c, 0) // 0 in item layer; 1,2,3 in block layer
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (no duplicates)", c.Len())
	}
	mustHit(t, c, 1) // migrates 1 out of the block copy
	if c.Len() != 4 {
		t.Errorf("Len after migration = %d, want 4", c.Len())
	}
	// The hole: the next block load needs the space, and dropping the
	// block-0 copy evicts only the unmigrated 2 and 3.
	mustMiss(t, c, 100) // block 25 loads 100 (item) + 101..103 → evicts block 0 copy
	if c.Contains(2) || c.Contains(3) {
		t.Error("remaining block-0 siblings should be gone")
	}
	if !c.Contains(1) || !c.Contains(100) {
		t.Error("migrated and requested items should survive")
	}
}

func TestExclusiveSpatialHitsStillWork(t *testing.T) {
	g := model.NewFixed(8)
	c := NewIBLPExclusive(16, 32, g)
	st := replay(t, c, workload.Sequential(0, 512))
	if st.SpatialHits == 0 {
		t.Error("exclusive variant should still serve spatial hits")
	}
	if st.Misses > 100 {
		t.Errorf("misses = %d, want ≈ 64 (one per block)", st.Misses)
	}
}

func TestExclusivePanicsAndReset(t *testing.T) {
	g := model.NewFixed(4)
	for _, fn := range []func(){
		func() { NewIBLPExclusive(0, 4, g) },
		func() { NewIBLPExclusive(4, -1, g) },
		func() { NewIBLPExclusive(4, 4, nil) },
		func() { NewIBLPInclusive(-1, 4, g) },
		func() { NewIBLPInclusive(4, 0, g) },
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
	c := NewIBLPExclusive(4, 8, g)
	c.Access(0)
	c.Reset()
	if c.Len() != 0 || c.Contains(0) {
		t.Error("Reset")
	}
	if c.Name() == "" {
		t.Error("Name")
	}
}

func TestGCMMarkAllPollutes(t *testing.T) {
	// Stride workload (one live item per block): mark-all pins dead
	// siblings for whole phases, cutting the effective size by ≈B (§6.1).
	g := model.NewFixed(8)
	tr := workload.Stride(12, 8, 8000) // 12 live items, fits k=16 easily
	gcm := replay(t, NewGCM(16, g, 4), tr)
	markAll := replay(t, NewGCMMarkAll(16, g, 4), tr)
	if gcm.MissRatio() > 0.2 {
		t.Errorf("gcm miss ratio %.3f, want small (live set fits)", gcm.MissRatio())
	}
	if markAll.Misses < 2*gcm.Misses {
		t.Errorf("mark-all %d misses vs gcm %d — expected pollution penalty",
			markAll.Misses, gcm.Misses)
	}
}

func TestGCMMarkAllMatchesGCMOnSpatialScan(t *testing.T) {
	// On a pure one-pass scan both variants pay ≈1 miss per block.
	g := model.NewFixed(8)
	tr := workload.Sequential(0, 4096)
	gcm := replay(t, NewGCM(64, g, 4), tr)
	markAll := replay(t, NewGCMMarkAll(64, g, 4), tr)
	if markAll.Misses > 2*gcm.Misses {
		t.Errorf("scan: mark-all %d vs gcm %d — should be comparable", markAll.Misses, gcm.Misses)
	}
	if c := NewGCMMarkAll(8, g, 1); c.Name() == "" || c.Capacity() != 8 {
		t.Error("accessors")
	}
	c := NewGCMMarkAll(8, g, 1)
	c.Access(0)
	c.Reset()
	if c.Len() != 0 {
		t.Error("Reset")
	}
}
