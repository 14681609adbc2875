package policy

import (
	"math/rand"
	"testing"

	"gccache/internal/model"
	"gccache/internal/trace"
)

func TestBlockLRULoadsWholeBlock(t *testing.T) {
	g := model.NewFixed(4)
	c := NewBlockLRU(8, g)
	a := mustMiss(t, c, 1)
	if len(a.Loaded) != 4 {
		t.Fatalf("Loaded = %v, want 4 items", a.Loaded)
	}
	for it := model.Item(0); it < 4; it++ {
		if !c.Contains(it) {
			t.Errorf("missing sibling %d", it)
		}
	}
	mustHit(t, c, 0)
	mustHit(t, c, 3)
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}

func TestBlockLRUEvictsWholeBlocks(t *testing.T) {
	g := model.NewFixed(4)
	c := NewBlockLRU(8, g) // two block frames
	mustMiss(t, c, 0)      // block 0
	mustMiss(t, c, 4)      // block 1
	mustHit(t, c, 1)       // promote block 0
	a := mustMiss(t, c, 8) // block 2 evicts block 1 (LRU)
	if len(a.Evicted) != 4 {
		t.Fatalf("Evicted = %v, want 4 items", a.Evicted)
	}
	for it := model.Item(4); it < 8; it++ {
		if c.Contains(it) {
			t.Errorf("item %d of evicted block still present", it)
		}
	}
	if !c.Contains(0) || !c.Contains(8) {
		t.Error("wrong surviving blocks")
	}
}

func TestBlockLRUSpatialHits(t *testing.T) {
	g := model.NewFixed(4)
	c := NewBlockLRU(16, g)
	// Touch each item of two blocks in sequence: 1 miss + 3 spatial hits
	// per block.
	tr := trace.Trace{0, 1, 2, 3, 4, 5, 6, 7}
	s := replay(t, c, tr)
	if s.Misses != 2 {
		t.Errorf("Misses = %d, want 2", s.Misses)
	}
	if s.SpatialHits != 6 {
		t.Errorf("SpatialHits = %d, want 6", s.SpatialHits)
	}
}

func TestBlockLRUPollution(t *testing.T) {
	// One live item per block: a BlockLRU of k items behaves like an
	// item cache of k/B items (Theorem 3's pollution effect).
	g := model.NewFixed(4)
	c := NewBlockLRU(8, g) // effectively 2 item slots
	// Cycle through 3 single items of distinct blocks: always misses.
	tr := trace.Trace{0, 4, 8}.Repeat(10)
	s := replay(t, c, tr)
	if s.Hits != 0 {
		t.Errorf("Hits = %d, want 0 (pollution)", s.Hits)
	}
	// ItemLRU with the same capacity holds all three.
	s2 := replay(t, NewItemLRU(8), tr)
	if s2.Misses != 3 {
		t.Errorf("ItemLRU misses = %d, want 3", s2.Misses)
	}
}

func TestBlockLRUOversizedBlockTruncates(t *testing.T) {
	g := model.NewFixed(8)
	c := NewBlockLRU(4, g)
	a := mustMiss(t, c, 3)
	if len(a.Loaded) != 4 {
		t.Fatalf("Loaded = %d items, want 4 (truncated)", len(a.Loaded))
	}
	if !c.Contains(3) {
		t.Fatal("requested item not retained")
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
	// Re-accessing a truncated-away sibling reloads the block.
	missing := model.Item(0)
	found := false
	for it := model.Item(0); it < 8; it++ {
		if !c.Contains(it) {
			missing = it
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no truncated sibling?")
	}
	mustMiss(t, c, missing)
	if !c.Contains(missing) || c.Len() > 4 {
		t.Errorf("after reload: Contains=%v Len=%d", c.Contains(missing), c.Len())
	}
}

func TestBlockLRUTableGeometry(t *testing.T) {
	g := model.MustTable([][]Item{{1, 2}, {3, 4, 5}})
	c := NewBlockLRU(5, g)
	mustMiss(t, c, 3)
	if !c.Contains(4) || !c.Contains(5) {
		t.Error("active set not fully loaded")
	}
	mustMiss(t, c, 1) // needs 2 slots, has 2 free
	if !c.Contains(2) {
		t.Error("second block not loaded")
	}
	if c.Len() != 5 {
		t.Errorf("Len = %d, want 5", c.Len())
	}
}

// Item alias keeps the table literal terse.
type Item = model.Item

func TestBlockLRUReset(t *testing.T) {
	g := model.NewFixed(2)
	c := NewBlockLRU(4, g)
	c.Access(0)
	c.Reset()
	if c.Len() != 0 || c.Contains(0) || c.Contains(1) {
		t.Error("Reset did not clear")
	}
}

func TestBlockLRUCapacityNeverExceeded(t *testing.T) {
	g := model.NewFixed(4)
	c := NewBlockLRU(10, g)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		c.Access(model.Item(rng.Intn(64)))
		checkInvariants(t, c)
	}
}

func TestBlockLRUPanics(t *testing.T) {
	assertPanics(t, func() { NewBlockLRU(0, model.NewFixed(2)) })
	assertPanics(t, func() { NewBlockLRU(4, nil) })
}
