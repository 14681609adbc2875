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
// outcomes: Hit flags and loaded/evicted *sets*, Len and Contains.
func diffCaches(t *testing.T, want, got cachesim.Cache, tr []model.Item) {
	t.Helper()
	for i, it := range tr {
		aw := want.Access(it)
		ag := got.Access(it)
		if aw.Hit != ag.Hit {
			t.Fatalf("access %d (item %d): want hit=%v got hit=%v", i, it, aw.Hit, ag.Hit)
		}
		wl, gl := sortedCopy(aw.Loaded()), sortedCopy(ag.Loaded())
		we, ge := sortedCopy(aw.Evicted()), sortedCopy(ag.Evicted())
		if !equalItems(wl, gl) {
			t.Fatalf("access %d (item %d): loaded sets diverge\n want %v\n got  %v", i, it, wl, gl)
		}
		if !equalItems(we, ge) {
			t.Fatalf("access %d (item %d): evicted sets diverge\n want %v\n got  %v", i, it, we, ge)
		}
		if want.Len() != got.Len() {
			t.Fatalf("access %d: Len diverged want=%d got=%d", i, want.Len(), got.Len())
		}
	}
	for probe := 0; probe < 256; probe++ {
		it := tr[probe*len(tr)/256]
		if want.Contains(it) != got.Contains(it) {
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

// grown returns c after one access to item universe-1 and a Reset: its
// arrays then cover the universe, as a presized cache's would.
func grown(c cachesim.Cache, universe int) cachesim.Cache {
	c.Access(model.Item(universe - 1))
	c.Reset()
	return c
}

// TestItemLRUPresizedMatchesGrown requires an ItemLRU whose arrays
// already cover the universe and one growing them as items arrive to
// decide alike.
func TestItemLRUPresizedMatchesGrown(t *testing.T) {
	const universe = 2048
	rng := rand.New(rand.NewSource(1))
	tr := genTrace(rng, universe, 50000, 16)
	diffCaches(t, grown(NewItemLRU(128), universe), NewItemLRU(128), tr)
}

// TestBlockLRUPresizedMatchesGrown is TestItemLRUPresizedMatchesGrown for
// BlockLRU at B = 1, 8, 64.
func TestBlockLRUPresizedMatchesGrown(t *testing.T) {
	const universe = 4096
	for _, blockSize := range []int{1, 8, 64} {
		g := model.NewFixed(blockSize)
		rng := rand.New(rand.NewSource(int64(blockSize)))
		tr := genTrace(rng, universe, 50000, blockSize)
		diffCaches(t, grown(NewBlockLRU(256, g), universe), NewBlockLRU(256, g), tr)
	}
}

// TestBlockLRUDenseDegenerate covers blocks larger than the whole cache
// (the model.TruncateAround path): a cache growing its arrays as it goes
// decides as one whose arrays already cover the universe.
func TestBlockLRUDenseDegenerate(t *testing.T) {
	const universe = 512
	g := model.NewFixed(64)
	rng := rand.New(rand.NewSource(9))
	tr := genTrace(rng, universe, 20000, 64)
	diffCaches(t, grown(NewBlockLRU(16, g), universe), NewBlockLRU(16, g), tr)
}

// TestBlockLRUDenseReset proves pooled reuse: Reset must restore a
// cache to a state indistinguishable from a fresh one.
func TestBlockLRUDenseReset(t *testing.T) {
	const universe = 1024
	g := model.NewFixed(8)
	rng := rand.New(rand.NewSource(3))
	tr := genTrace(rng, universe, 20000, 8)
	pooled := NewBlockLRU(128, g)
	for _, it := range tr[:5000] {
		pooled.Access(it)
	}
	pooled.Reset()
	diffCaches(t, NewBlockLRU(128, g), pooled, tr)
}

func TestItemLRUDenseZeroAllocSteadyState(t *testing.T) {
	const universe = 1 << 12
	c := NewItemLRU(256)
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
// inside the window. B = 48 and 128 load and drop whole blocks as
// words that straddle or span a bitset word.
func TestBlockLRUDenseZeroAllocSteadyState(t *testing.T) {
	const universe = 1 << 12
	for _, shape := range []struct{ B, k, stride int }{
		{16, 512, 37},
		{16, 8, 5},
		{48, 512, 37},
		{128, 512, 37},
	} {
		c := NewBlockLRU(shape.k, model.NewFixed(shape.B))
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
			t.Errorf("B=%d k=%d: BlockLRU dense path allocates %.2f allocs/access, want 0", shape.B, shape.k, avg)
		}
		if misses == 0 || evicted == 0 {
			t.Errorf("B=%d k=%d: window had %d misses and %d evictions, want both > 0", shape.B, shape.k, misses, evicted)
		}
	}
}
