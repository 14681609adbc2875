package core

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
		case 0:
			cur = model.Item(rng.Intn(universe))
			tr = append(tr, cur)
		case 1:
			if len(tr) > 0 {
				back := len(tr)
				if back > 32 {
					back = 32
				}
				cur = tr[len(tr)-1-rng.Intn(back)]
			}
			tr = append(tr, cur)
		default:
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

func sortedCopy(items []model.Item) []model.Item {
	out := append([]model.Item(nil), items...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
		if !equalItems(sortedCopy(aw.Loaded()), sortedCopy(ag.Loaded())) {
			t.Fatalf("access %d (item %d): loaded sets diverge\n want %v\n got  %v",
				i, it, sortedCopy(aw.Loaded()), sortedCopy(ag.Loaded()))
		}
		if !equalItems(sortedCopy(aw.Evicted()), sortedCopy(ag.Evicted())) {
			t.Fatalf("access %d (item %d): evicted sets diverge\n want %v\n got  %v",
				i, it, sortedCopy(aw.Evicted()), sortedCopy(ag.Evicted()))
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

// TestIBLPPresizedMatchesGrown requires an IBLP presized for the
// universe and one grown on demand, as NewIBLPEvenSplit builds it, to
// decide alike.
func TestIBLPPresizedMatchesGrown(t *testing.T) {
	const universe = 4096
	for _, blockSize := range []int{1, 8, 64} {
		g := model.NewFixed(blockSize)
		rng := rand.New(rand.NewSource(int64(blockSize)))
		tr := genTrace(rng, universe, 50000, blockSize)
		diffCaches(t, NewIBLPEvenSplitBounded(256, g, universe), NewIBLPEvenSplit(256, g), tr)
	}
}

// TestIBLPDenseExtremeSplits covers i=0 (pure block layer) and b=0 (pure
// item layer) plus a block layer smaller than one block (truncation):
// an IBLP grown on demand decides as one presized for the universe.
func TestIBLPDenseExtremeSplits(t *testing.T) {
	const universe = 1024
	g := model.NewFixed(16)
	rng := rand.New(rand.NewSource(5))
	tr := genTrace(rng, universe, 30000, 16)
	for _, split := range [][2]int{{0, 128}, {128, 0}, {120, 8}} {
		i, b := split[0], split[1]
		diffCaches(t, newIBLP(i, b, g, universe), NewIBLP(i, b, g), tr)
	}
}

func TestIBLPDenseReset(t *testing.T) {
	const universe = 2048
	g := model.NewFixed(8)
	rng := rand.New(rand.NewSource(6))
	tr := genTrace(rng, universe, 30000, 8)
	pooled := NewIBLPEvenSplitBounded(128, g, universe)
	for _, it := range tr[:7000] {
		pooled.Access(it)
	}
	pooled.Reset()
	diffCaches(t, NewIBLPEvenSplit(128, g), pooled, tr)
}

// TestGCMPresizedMatchesGrown requires bit-for-bit equality between a
// GCM presized for the universe and one grown on demand: growing must
// not touch the seeded stream, so every random eviction picks the same
// victim.
func TestGCMPresizedMatchesGrown(t *testing.T) {
	const universe = 2048
	for _, blockSize := range []int{1, 8, 32} {
		g := model.NewFixed(blockSize)
		rng := rand.New(rand.NewSource(int64(100 + blockSize)))
		tr := genTrace(rng, universe, 40000, blockSize)
		presized := NewGCMBounded(192, g, 77, universe)
		grown := NewGCM(192, g, 77)
		if len(presized.pos) < universe || len(grown.pos) != 0 {
			t.Fatalf("B=%d: position arrays %d and %d items, want ≥ %d and 0",
				blockSize, len(presized.pos), len(grown.pos), universe)
		}
		diffCaches(t, presized, grown, tr)
		if presized.MarkedCount() != grown.MarkedCount() {
			t.Fatalf("B=%d: marked counts diverged %d vs %d",
				blockSize, presized.MarkedCount(), grown.MarkedCount())
		}
	}
}

// TestGCMReseedEqualsFresh proves the Reseeder contract: Reseed+Reset on
// a used instance must reproduce a freshly constructed cache exactly.
func TestGCMReseedEqualsFresh(t *testing.T) {
	const universe = 1024
	g := model.NewFixed(8)
	rng := rand.New(rand.NewSource(8))
	tr := genTrace(rng, universe, 20000, 8)

	pooled := NewGCM(128, g, 1)
	for _, it := range tr[:5000] {
		pooled.Access(it)
	}
	pooled.Reseed(99)
	pooled.Reset()
	fresh := NewGCM(128, g, 99)
	diffCaches(t, fresh, pooled, tr)
}

// TestGCMMarkAllPresizedMatchesGrown is TestGCMPresizedMatchesGrown for
// the mark-everything ablation.
func TestGCMMarkAllPresizedMatchesGrown(t *testing.T) {
	const universe = 1024
	g := model.NewFixed(8)
	rng := rand.New(rand.NewSource(12))
	tr := genTrace(rng, universe, 30000, 8)
	presized := &GCMMarkAll{inner: NewGCMBounded(128, g, 5, universe)}
	diffCaches(t, presized, NewGCMMarkAll(128, g, 5), tr)
}

// TestIBLPDenseZeroAllocSteadyState covers an even split and a block
// layer narrower than a block (b < B), where every copy is truncated
// around its requested item. There a stride shorter than B misses on a
// block whose truncated copy is resident, so the replacement evicts
// items the reload brings straight back and the net-change bookkeeping
// runs inside the window. B = 48 and 128 admit and drop whole blocks
// as words that straddle or span a bitset word.
func TestIBLPDenseZeroAllocSteadyState(t *testing.T) {
	const universe = 1 << 12
	for _, shape := range []struct{ B, i, b, stride int }{
		{16, 256, 256, 37},
		{16, 248, 8, 5},
		{48, 256, 256, 37},
		{128, 256, 256, 37},
	} {
		c := NewIBLP(shape.i, shape.b, model.NewFixed(shape.B))
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
			t.Errorf("B=%d i=%d b=%d: IBLP dense path allocates %.2f allocs/access, want 0", shape.B, shape.i, shape.b, avg)
		}
		if misses == 0 || evicted == 0 {
			t.Errorf("B=%d i=%d b=%d: window had %d misses and %d evictions, want both > 0", shape.B, shape.i, shape.b, misses, evicted)
		}
	}
}

// TestGCMDenseZeroAllocSteadyState covers both victim draws: Intn's
// rejection loop (k=500) and the inline power-of-two loop (k=512). The
// stride keeps the window miss-heavy, so it shuffles siblings, evicts
// and crosses phase boundaries.
func TestGCMDenseZeroAllocSteadyState(t *testing.T) {
	const universe = 1 << 12
	g := model.NewFixed(16)
	for _, k := range []int{500, 512} {
		c := NewGCM(k, g, 3)
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
			i += 37
		}); avg != 0 {
			t.Errorf("k=%d: GCM dense path allocates %.2f allocs/access, want 0", k, avg)
		}
		if misses == 0 || evicted == 0 {
			t.Errorf("k=%d: window had %d misses and %d evictions, want both > 0", k, misses, evicted)
		}
	}
}
