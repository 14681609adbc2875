package policy

import (
	"math/rand"
	"sort"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
)

// genTrace builds a trace with mixed spatial/temporal locality over item
// IDs [0, universe): runs within a block, revisits, and random jumps.
func genTrace(rng *rand.Rand, universe, length, blockSize int) []model.Item {
	tr := make([]model.Item, 0, length)
	cur := model.Item(rng.Intn(universe))
	for len(tr) < length {
		switch rng.Intn(4) {
		case 0: // random jump
			cur = model.Item(rng.Intn(universe))
			tr = append(tr, cur)
		case 1: // revisit something recent
			if len(tr) > 0 {
				cur = tr[len(tr)-1-rng.Intn(minLen(len(tr), 32))]
			}
			tr = append(tr, cur)
		default: // run within the current block
			base := uint64(cur) / uint64(blockSize) * uint64(blockSize)
			for n := rng.Intn(blockSize) + 1; n > 0 && len(tr) < length; n-- {
				cur = model.Item(base + uint64(rng.Intn(blockSize)))
				if int(cur) >= universe {
					cur = model.Item(universe - 1)
				}
				tr = append(tr, cur)
			}
		}
	}
	return tr
}

func minLen(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func sortedCopy(items []model.Item) []model.Item {
	out := append([]model.Item(nil), items...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// diffCaches feeds tr to both caches and requires identical per-access
// outcomes: Hit flags and loaded/evicted *sets* (order may legitimately
// differ between representations; no consumer is order-sensitive).
func diffCaches(t *testing.T, generic, dense cachesim.Cache, tr []model.Item) {
	t.Helper()
	for i, it := range tr {
		ag := generic.Access(it)
		ad := dense.Access(it)
		if ag.Hit != ad.Hit {
			t.Fatalf("access %d (item %d): generic hit=%v dense hit=%v", i, it, ag.Hit, ad.Hit)
		}
		gl, dl := sortedCopy(ag.Loaded()), sortedCopy(ad.Loaded())
		ge, de := sortedCopy(ag.Evicted()), sortedCopy(ad.Evicted())
		if !equalItems(gl, dl) {
			t.Fatalf("access %d (item %d): loaded sets diverge\n generic %v\n dense   %v", i, it, gl, dl)
		}
		if !equalItems(ge, de) {
			t.Fatalf("access %d (item %d): evicted sets diverge\n generic %v\n dense   %v", i, it, ge, de)
		}
		if generic.Len() != dense.Len() {
			t.Fatalf("access %d: Len diverged generic=%d dense=%d", i, generic.Len(), dense.Len())
		}
	}
	for probe := 0; probe < 256; probe++ {
		it := tr[probe*len(tr)/256]
		if generic.Contains(it) != dense.Contains(it) {
			t.Fatalf("Contains(%d) diverged", it)
		}
	}
}

func equalItems(a, b []model.Item) bool {
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

func TestItemLRUDenseMatchesGeneric(t *testing.T) {
	const universe = 2048
	rng := rand.New(rand.NewSource(1))
	tr := genTrace(rng, universe, 50000, 16)
	generic := NewItemLRU(128)
	dense := NewItemLRUBounded(128, universe)
	diffCaches(t, generic, dense, tr)
}

func TestItemLRUBoundedFallback(t *testing.T) {
	c := NewItemLRUBounded(4, cachesim.MaxBoundedUniverse+1)
	// Out-of-range universe must fall back to the generic list and keep
	// accepting arbitrary IDs.
	if a := c.Access(model.Item(1 << 40)); a.Hit {
		t.Fatal("fresh cache reported a hit")
	}
}

func TestBlockLRUDenseMatchesGeneric(t *testing.T) {
	const universe = 4096
	for _, blockSize := range []int{1, 8, 64} {
		g := model.NewFixed(blockSize)
		rng := rand.New(rand.NewSource(int64(blockSize)))
		tr := genTrace(rng, universe, 50000, blockSize)
		generic := NewBlockLRU(256, g)
		dense := NewBlockLRUBounded(256, g, universe)
		if dense.presentBits == nil {
			t.Fatalf("B=%d: bounded constructor fell back unexpectedly", blockSize)
		}
		diffCaches(t, generic, dense, tr)
	}
}

// TestBlockLRUDenseDegenerate covers blocks larger than the whole cache
// (the model.TruncateAround path) on both representations.
func TestBlockLRUDenseDegenerate(t *testing.T) {
	const universe = 512
	g := model.NewFixed(64)
	rng := rand.New(rand.NewSource(9))
	tr := genTrace(rng, universe, 20000, 64)
	diffCaches(t, NewBlockLRU(16, g), NewBlockLRUBounded(16, g, universe), tr)
}

func TestBlockLRUBoundedFallback(t *testing.T) {
	g := model.NewFixed(8)
	c := NewBlockLRUBounded(64, g, 0)
	if c.presentBits != nil {
		t.Fatal("universe 0 should fall back to the generic representation")
	}
	if a := c.Access(model.Item(1 << 40)); a.Hit {
		t.Fatal("fresh cache reported a hit")
	}
}

// TestBlockLRUDenseReset proves pooled reuse: Reset must restore a dense
// cache to a state indistinguishable from a fresh one.
func TestBlockLRUDenseReset(t *testing.T) {
	const universe = 1024
	g := model.NewFixed(8)
	rng := rand.New(rand.NewSource(3))
	tr := genTrace(rng, universe, 20000, 8)
	pooled := NewBlockLRUBounded(128, g, universe)
	for _, it := range tr[:5000] {
		pooled.Access(it)
	}
	pooled.Reset()
	diffCaches(t, NewBlockLRU(128, g), pooled, tr)
}

func TestItemLRUDenseZeroAllocSteadyState(t *testing.T) {
	const universe = 1 << 12
	c := NewItemLRUBounded(256, universe)
	for i := 0; i < universe*2; i++ {
		c.Access(model.Item(i % universe))
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		c.Access(model.Item(i % universe))
		i += 37
	}); avg != 0 {
		t.Errorf("ItemLRU dense path allocates %.2f allocs/access, want 0", avg)
	}
}

// TestBlockLRUDenseZeroAllocSteadyState covers a roomy cache and one
// smaller than a block (k < B), where every load is truncated around
// its requested item. There a stride shorter than B misses on a block
// whose truncated copy is resident, so the replacement evicts items the
// reload brings straight back and the net-change bookkeeping runs
// inside the window.
func TestBlockLRUDenseZeroAllocSteadyState(t *testing.T) {
	const universe = 1 << 12
	g := model.NewFixed(16)
	for _, shape := range []struct{ k, stride int }{
		{512, 37},
		{8, 5},
	} {
		c := NewBlockLRUBounded(shape.k, g, universe)
		for i := 0; i < universe*2; i++ {
			c.Access(model.Item(i % universe))
		}
		i, misses, evicted := 0, 0, 0
		if avg := testing.AllocsPerRun(2000, func() {
			a := c.Access(model.Item(i % universe))
			if !a.Hit {
				misses++
			}
			evicted += len(a.Evicted())
			i += shape.stride
		}); avg != 0 {
			t.Errorf("k=%d: BlockLRU dense path allocates %.2f allocs/access, want 0", shape.k, avg)
		}
		if misses == 0 || evicted == 0 {
			t.Errorf("k=%d: window had %d misses and %d evictions, want both > 0", shape.k, misses, evicted)
		}
	}
}
