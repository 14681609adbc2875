package policy

import (
	"math/rand"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

func TestFootprintFirstTouchLoadsOnlyItem(t *testing.T) {
	g := model.NewFixed(8)
	c := NewFootprint(32, g)
	a := mustMiss(t, c, 3)
	if len(a.Loaded) != 1 || a.Loaded[0] != 3 {
		t.Fatalf("first touch loaded %v, want just the item", a.Loaded)
	}
}

func TestFootprintLearnsUsedOffsets(t *testing.T) {
	g := model.NewFixed(8)
	c := NewFootprint(4, g) // small: residencies end quickly
	// First residency of block 0: touch items 0 and 2.
	mustMiss(t, c, 0)
	mustMiss(t, c, 2)
	// Evict them by filling with other blocks.
	mustMiss(t, c, 100)
	mustMiss(t, c, 200)
	mustMiss(t, c, 300)
	mustMiss(t, c, 400)
	if c.Contains(0) || c.Contains(2) {
		t.Fatal("block 0 items still resident")
	}
	if fp := c.PredictedFootprint(0); fp != 0b101 {
		t.Fatalf("learned footprint %b, want 101", fp)
	}
	// Second residency: the miss on 0 prefetches 2 as well.
	a := mustMiss(t, c, 0)
	if len(a.Loaded) != 2 {
		t.Fatalf("predicted load = %v, want {0, 2}", a.Loaded)
	}
	mustHit(t, c, 2)
}

func TestFootprintBeatsExtremesOnPartialBlockReuse(t *testing.T) {
	// Workload: each block has exactly half its items live, revisited in
	// cycles. The item cache pays per item; the block cache wastes half
	// its space on dead items; footprint learns the live halves.
	B := 8
	g := model.NewFixed(B)
	k := 64
	nBlocks := 12 // live footprint = 12×4 = 48 ≤ k; full blocks = 96 > k
	var cycle trace.Trace
	for blk := 0; blk < nBlocks; blk++ {
		for off := 0; off < B; off += 2 { // even offsets only
			cycle = append(cycle, model.Item(blk*B+off))
		}
	}
	tr := cycle.Repeat(200)
	fp := replay(t, NewFootprint(k, g), tr)
	item := replay(t, NewItemLRU(k), tr)
	blkc := replay(t, NewBlockLRU(k, g), tr)
	// Everything fits for footprint and item-lru (48 live ≤ 64): both
	// converge to cold misses only; block-lru (96 > 64) thrashes.
	if fp.MissRatio() > 0.02 {
		t.Errorf("footprint miss ratio %.4f, want ≈ cold only", fp.MissRatio())
	}
	if blkc.Misses < 10*fp.Misses {
		t.Errorf("block-lru %d misses vs footprint %d: pollution expected", blkc.Misses, fp.Misses)
	}
	if fp.Misses > item.Misses {
		t.Errorf("footprint %d misses should not exceed item-lru %d", fp.Misses, item.Misses)
	}
	// And under capacity pressure (k half the live set), footprint's
	// prefetch of live halves beats the item cache's one-at-a-time loads.
	k2 := 24
	fp2 := replay(t, NewFootprint(k2, g), tr)
	item2 := replay(t, NewItemLRU(k2), tr)
	if fp2.Misses*2 > item2.Misses {
		t.Errorf("under pressure: footprint %d vs item-lru %d — expected ≈¼ the misses",
			fp2.Misses, item2.Misses)
	}
}

func TestFootprintCapacityAndConformance(t *testing.T) {
	g := model.NewFixed(8)
	v := cachesim.NewValidator(NewFootprint(24, g), g)
	tr, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 32, BlockSize: 8, MeanRunLength: 4, Length: 15000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	replay(t, v, tr)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	c := NewFootprint(10, g)
	for i := 0; i < 5000; i++ {
		c.Access(model.Item(rng.Intn(200)))
		checkInvariants(t, c)
	}
	c.Reset()
	if c.Len() != 0 || c.PredictedFootprint(0) != 0 {
		t.Error("Reset")
	}
}

func TestFootprintPanics(t *testing.T) {
	g := model.NewFixed(8)
	assertPanics(t, func() { NewFootprint(0, g) })
	assertPanics(t, func() { NewFootprint(8, nil) })
	assertPanics(t, func() { NewFootprint(8, model.NewFixed(128)) })
	if NewFootprint(8, g).Name() != "footprint" {
		t.Error("Name")
	}
}
