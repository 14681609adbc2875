package policy

import (
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/trace"
)

func TestItemLRUBasicEviction(t *testing.T) {
	c := NewItemLRU(2)
	mustMiss(t, c, 1)
	mustMiss(t, c, 2)
	mustHit(t, c, 1) // promote 1; LRU is 2
	a := c.Access(3) // evicts 2
	if a.Hit {
		t.Fatal("unexpected hit on 3")
	}
	if len(a.Evicted) != 1 || a.Evicted[0] != 2 {
		t.Fatalf("Evicted = %v, want [2]", a.Evicted)
	}
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Error("wrong contents after eviction")
	}
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Errorf("Len=%d Cap=%d", c.Len(), c.Capacity())
	}
}

func TestItemLRUSequentialScanMissesAll(t *testing.T) {
	c := NewItemLRU(8)
	tr := make(trace.Trace, 0, 100)
	for i := 0; i < 100; i++ {
		tr = append(tr, model.Item(i))
	}
	s := replay(t, c, tr)
	if s.Misses != 100 || s.Hits != 0 {
		t.Errorf("scan: %+v", s)
	}
}

func TestItemLRUWorkingSetFits(t *testing.T) {
	c := NewItemLRU(4)
	tr := trace.Trace{0, 1, 2, 3}.Repeat(25)
	s := replay(t, c, tr)
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4 (cold only)", s.Misses)
	}
	if s.TemporalHits != 96 || s.SpatialHits != 0 {
		t.Errorf("hits split = %d/%d", s.TemporalHits, s.SpatialHits)
	}
}

func TestItemLRUReset(t *testing.T) {
	c := NewItemLRU(2)
	c.Access(1)
	c.Reset()
	if c.Len() != 0 || c.Contains(1) {
		t.Error("Reset did not clear")
	}
}

func TestItemLRUPanicsOnBadCapacity(t *testing.T) {
	assertPanics(t, func() { NewItemLRU(0) })
}

func TestItemLRUNeverLoadsSiblings(t *testing.T) {
	c := NewItemLRU(10)
	a := c.Access(5)
	if len(a.Loaded) != 1 || a.Loaded[0] != 5 {
		t.Errorf("Loaded = %v, want [5]", a.Loaded)
	}
}

// Helpers shared by the policy tests.

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

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// checkInvariants verifies the universal cache invariants after a run.
func checkInvariants(t *testing.T, c cachesim.Cache) {
	t.Helper()
	if c.Len() > c.Capacity() {
		t.Fatalf("%s: Len %d > Capacity %d", c.Name(), c.Len(), c.Capacity())
	}
}

// TestItemLRUAppendRecency pins the MRU-first dump order cluster
// handoff replays: the dump after a known access pattern lists items
// from most to least recently used, for both list and dense backings.
func TestItemLRUAppendRecency(t *testing.T) {
	for _, c := range []*ItemLRU{NewItemLRU(4), NewItemLRUBounded(4, 64)} {
		for _, it := range []model.Item{1, 2, 3, 4, 2, 1} {
			c.Access(it)
		}
		got := c.AppendRecency(nil)
		want := []model.Item{1, 2, 4, 3}
		if len(got) != len(want) {
			t.Fatalf("dumped %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dumped %v, want %v", got, want)
			}
		}
		// Append semantics: an existing prefix is preserved.
		pre := c.AppendRecency([]model.Item{99})
		if pre[0] != 99 || len(pre) != 5 {
			t.Fatalf("AppendRecency clobbered the prefix: %v", pre)
		}
	}
}
