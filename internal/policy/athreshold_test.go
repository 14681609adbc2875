package policy

import (
	"math/rand"
	"testing"

	"gccache/internal/model"
	"gccache/internal/trace"
)

func TestBlockLoadItemEvictLoadsFullBlockOnMiss(t *testing.T) {
	g := model.NewFixed(4)
	c := NewBlockLoadItemEvict(8, g)
	a := mustMiss(t, c, 1)
	if len(a.Loaded()) != 4 {
		t.Fatalf("Loaded = %v, want full block", a.Loaded())
	}
	mustHit(t, c, 0)
	mustHit(t, c, 2)
	mustHit(t, c, 3)
}

func TestBlockLoadItemEvictEvictsIndividually(t *testing.T) {
	g := model.NewFixed(4)
	c := NewBlockLoadItemEvict(6, g)
	mustMiss(t, c, 0) // loads 0..3; 0 is MRU
	mustMiss(t, c, 4) // loads 4..7, capacity 6: evicts two items, not a block
	// 0 and 4 were the requested (MRU) items; they must survive.
	if !c.Contains(0) || !c.Contains(4) {
		t.Error("requested items evicted")
	}
	if c.Len() != 6 {
		t.Errorf("Len = %d, want 6", c.Len())
	}
}

func TestAThresholdWaitsForADistinctAccesses(t *testing.T) {
	g := model.NewFixed(4)
	c := NewAThreshold(16, 3, g)
	a := mustMiss(t, c, 0) // 1 distinct
	if len(a.Loaded()) != 1 {
		t.Fatalf("first miss loaded %v", a.Loaded())
	}
	a = mustMiss(t, c, 1) // 2 distinct
	if len(a.Loaded()) != 1 {
		t.Fatalf("second miss loaded %v", a.Loaded())
	}
	a = mustMiss(t, c, 2) // 3rd distinct: whole block
	if len(a.Loaded()) != 2 {
		t.Fatalf("third miss loaded %v, want remaining 2 items", a.Loaded())
	}
	mustHit(t, c, 3)
}

func TestAThresholdCounterIncludesHits(t *testing.T) {
	g := model.NewFixed(4)
	c := NewAThreshold(16, 2, g)
	mustMiss(t, c, 0)
	mustHit(t, c, 0) // same item: still 1 distinct
	a := mustMiss(t, c, 1)
	if len(a.Loaded()) != 3 {
		t.Fatalf("expected full-block load on 2nd distinct access, got %v", a.Loaded())
	}
}

func TestAThresholdNoLoadOnHit(t *testing.T) {
	g := model.NewFixed(4)
	c := NewAThreshold(16, 2, g)
	mustMiss(t, c, 0)
	mustMiss(t, c, 4) // other block; block 0 counter stays at 1
	// Hit on 0 is the 1st... access 1 of block 0 reaches threshold via
	// a hit? No: hit on 0 keeps distinct=1. Access 1 (miss, distinct=2)
	// triggers the load.
	mustHit(t, c, 0)
	a := mustMiss(t, c, 1)
	if len(a.Loaded()) != 3 {
		t.Fatalf("Loaded = %v", a.Loaded())
	}
}

func TestAThresholdLargeABehavesLikeItemLRU(t *testing.T) {
	g := model.NewFixed(4)
	rng := rand.New(rand.NewSource(3))
	tr := make(trace.Trace, 4000)
	for i := range tr {
		tr[i] = model.Item(rng.Intn(40))
	}
	at := replay(t, NewAThreshold(10, 64, g), tr)
	lru := replay(t, NewItemLRU(10), tr)
	if at.Misses != lru.Misses {
		t.Errorf("a≥B misses %d != ItemLRU %d", at.Misses, lru.Misses)
	}
	if at.ItemsLoaded != lru.ItemsLoaded {
		t.Errorf("a≥B loads %d != ItemLRU %d", at.ItemsLoaded, lru.ItemsLoaded)
	}
}

func TestAThresholdResetClearsCounters(t *testing.T) {
	g := model.NewFixed(4)
	c := NewAThreshold(16, 2, g)
	mustMiss(t, c, 0)
	c.Reset()
	a := mustMiss(t, c, 1)
	if len(a.Loaded()) != 1 {
		t.Fatalf("counter survived Reset: %v", a.Loaded())
	}
}

func TestAThresholdCounterClearsWhenBlockFullyEvicted(t *testing.T) {
	g := model.NewFixed(2)
	c := NewAThreshold(2, 2, g)
	mustMiss(t, c, 0) // block 0: 1 distinct
	// Fill with other blocks so 0 is evicted.
	mustMiss(t, c, 10)
	mustMiss(t, c, 12) // 0 evicted now
	if c.Contains(0) {
		t.Fatal("0 still cached")
	}
	// Re-access 0: its counter must have restarted at 0, so this is the
	// 1st distinct access and loads only the item.
	a := mustMiss(t, c, 0)
	if len(a.Loaded()) != 1 {
		t.Fatalf("Loaded = %v, want just the item", a.Loaded())
	}
}

func TestAThresholdCapacityRespected(t *testing.T) {
	g := model.NewFixed(8)
	c := NewAThreshold(12, 2, g)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		c.Access(model.Item(rng.Intn(128)))
		checkInvariants(t, c)
	}
}

func TestAThresholdNameAndA(t *testing.T) {
	g := model.NewFixed(4)
	if NewAThreshold(4, 1, g).Name() != "block-load-item-evict" {
		t.Error("a=1 name")
	}
	c := NewAThreshold(4, 3, g)
	if c.A() != 3 {
		t.Errorf("A() = %d", c.A())
	}
	if c.Name() == "" {
		t.Error("empty name")
	}
}

func TestAThresholdPanics(t *testing.T) {
	g := model.NewFixed(2)
	assertPanics(t, func() { NewAThreshold(0, 1, g) })
	assertPanics(t, func() { NewAThreshold(4, 0, g) })
	assertPanics(t, func() { NewAThreshold(4, 1, nil) })
}
