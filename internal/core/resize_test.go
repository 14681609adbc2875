package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"gccache/internal/bitset"
	"gccache/internal/model"
)

// popcount counts the members of a bitset.
func popcount(b bitset.Set) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// checkIBLPInvariants asserts the occupancy identities a resize must
// preserve: each layer within its configured size, and the membership
// bitsets agreeing with the recency orders.
func checkIBLPInvariants(t *testing.T, c *IBLP, step int) {
	t.Helper()
	if c.items.Len() > c.itemSize {
		t.Fatalf("step %d: item layer holds %d > size %d", step, c.items.Len(), c.itemSize)
	}
	if c.blockUsed > c.blockSize {
		t.Fatalf("step %d: block layer holds %d > size %d", step, c.blockUsed, c.blockSize)
	}
	if c.blockUsed < 0 {
		t.Fatalf("step %d: blockUsed drifted negative: %d", step, c.blockUsed)
	}
	if got := popcount(c.inItem); got != c.items.Len() {
		t.Fatalf("step %d: inItem has %d set, item order holds %d", step, got, c.items.Len())
	}
	if got := popcount(c.inBlock); got != c.blockUsed {
		t.Fatalf("step %d: inBlock has %d set, blockUsed=%d", step, got, c.blockUsed)
	}
}

// checkAdaptiveInvariants asserts the corresponding identities for the
// adaptive policy, including the ghost-list bounds.
func checkAdaptiveInvariants(t *testing.T, c *AdaptiveIBLP, step int) {
	t.Helper()
	if c.items.Len() > c.targetItem {
		t.Fatalf("step %d: item layer holds %d > target %d", step, c.items.Len(), c.targetItem)
	}
	if tb := c.capacity - c.targetItem; c.blockUsed > tb {
		t.Fatalf("step %d: block layer holds %d > target %d", step, c.blockUsed, tb)
	}
	if c.blockUsed < 0 {
		t.Fatalf("step %d: blockUsed drifted negative: %d", step, c.blockUsed)
	}
	sum := 0
	c.blocks.Each(func(blk model.Block) bool {
		held := 0
		for _, x := range model.AppendItemsOf(c.geo, nil, blk) {
			if c.inBlock.Has(uint64(x)) {
				held++
			}
		}
		if held == 0 {
			t.Fatalf("step %d: resident block %d holds no items", step, blk)
		}
		sum += held
		return true
	})
	if sum != c.blockUsed {
		t.Fatalf("step %d: resident blocks hold %d items, blockUsed=%d", step, sum, c.blockUsed)
	}
	for blk, lead := range c.lead {
		if lead == 0 {
			continue
		}
		it := lead - 1
		if c.geo.BlockOf(it) != model.Block(blk) || !c.blocks.Contains(model.Block(blk)) || !c.inBlock.Has(uint64(it)) {
			t.Fatalf("step %d: lead item %d of block %d is not a held item of a resident block", step, it, blk)
		}
	}
	if got := popcount(c.inBlock); got != c.blockUsed {
		t.Fatalf("step %d: inBlock has %d set, blockUsed=%d", step, got, c.blockUsed)
	}
	if c.Len() > c.capacity {
		t.Fatalf("step %d: Len()=%d exceeds capacity %d", step, c.Len(), c.capacity)
	}
	if c.ghostItems.Len() > 2*c.capacity {
		t.Fatalf("step %d: ghostItems grew to %d > %d", step, c.ghostItems.Len(), 2*c.capacity)
	}
}

// TestIBLPResizeStormPresizedMatchesGrown interleaves random accesses
// with random repartitions and requires an IBLP presized for the
// universe and one grown on demand to stay
// decision-identical throughout.
func TestIBLPResizeStormPresizedMatchesGrown(t *testing.T) {
	const universe = 4096
	const k = 256
	for _, blockSize := range []int{1, 8, 64} {
		g := model.NewFixed(blockSize)
		rng := rand.New(rand.NewSource(int64(900 + blockSize)))
		generic := NewIBLPEvenSplit(k, g)
		dense := NewIBLPEvenSplitBounded(k, g, universe)
		tr := genTrace(rng, universe, 40000, blockSize)
		for step, it := range tr {
			if step%101 == 100 {
				target := rng.Intn(k + 1)
				generic.SetItemLayerTarget(target)
				dense.SetItemLayerTarget(target)
				if generic.Len() != dense.Len() {
					t.Fatalf("B=%d step %d: Len diverged after resize to %d: generic=%d dense=%d",
						blockSize, step, target, generic.Len(), dense.Len())
				}
			}
			ag := generic.Access(it)
			ad := dense.Access(it)
			if ag.Hit != ad.Hit {
				t.Fatalf("B=%d step %d (item %d): generic hit=%v dense hit=%v",
					blockSize, step, it, ag.Hit, ad.Hit)
			}
			if !equalItems(sortedCopy(ag.Loaded()), sortedCopy(ad.Loaded())) ||
				!equalItems(sortedCopy(ag.Evicted()), sortedCopy(ad.Evicted())) {
				t.Fatalf("B=%d step %d (item %d): load/evict sets diverge", blockSize, step, it)
			}
			if step%173 == 0 {
				checkIBLPInvariants(t, generic, step)
				checkIBLPInvariants(t, dense, step)
			}
		}
	}
}

// TestIBLPResizeStormInvariants hammers a grown and a presized IBLP with
// interleaved accesses and grow/shrink moves (including the extremes
// i=0 and i=k) and asserts the occupancy identities after every move.
func TestIBLPResizeStormInvariants(t *testing.T) {
	const universe = 2048
	const k = 128
	g := model.NewFixed(16)
	for _, bounded := range []bool{false, true} {
		var c *IBLP
		if bounded {
			c = NewIBLPEvenSplitBounded(k, g, universe)
		} else {
			c = NewIBLPEvenSplit(k, g)
		}
		rng := rand.New(rand.NewSource(42))
		for step := 0; step < 20000; step++ {
			if step%17 == 16 {
				var target int
				switch rng.Intn(4) {
				case 0:
					target = 0
				case 1:
					target = k
				default:
					target = rng.Intn(k + 1)
				}
				c.SetItemLayerTarget(target)
				if got := c.ItemLayerTarget(); got != target {
					t.Fatalf("bounded=%v step %d: target=%d after SetItemLayerTarget(%d)", bounded, step, got, target)
				}
			} else {
				c.Access(model.Item(rng.Intn(universe)))
			}
			checkIBLPInvariants(t, c, step)
		}
	}
}

// TestAdaptiveResizeStormInvariants is the same storm against the
// adaptive policy, whose internal ±1 votes interleave with the external
// moves — the autotuner's exact access pattern.
func TestAdaptiveResizeStormInvariants(t *testing.T) {
	const universe = 1024
	const k = 128
	g := model.NewFixed(8)
	c := NewAdaptiveIBLP(k, g)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 30000; step++ {
		if step%29 == 28 {
			c.SetItemLayerTarget(rng.Intn(k + 1))
		} else {
			c.Access(model.Item(rng.Intn(universe)))
		}
		checkAdaptiveInvariants(t, c, step)
	}
}

// TestAdaptiveResizeStormDifferentialFinalSplit pins repeated-resize
// accounting end to end: after a randomized storm of accesses and
// external moves, the stormed cache and a from-scratch cache set to the
// same final split must become decision-identical once a warmup pass
// over fresh items flushes every history-dependent structure (both
// layers and both bounded ghost lists). Any storm-era drift in
// blockUsed or the membership maps would survive the warmup and split
// the decisions.
func TestAdaptiveResizeStormDifferentialFinalSplit(t *testing.T) {
	const (
		k          = 256
		B          = 16
		stormItems = 4096 // storm range: items [0, stormItems)
		warmItems  = 4096 // warmup/probe range: [stormItems, stormItems+warmItems)
	)
	g := model.NewFixed(B)
	rng := rand.New(rand.NewSource(99))

	stormed := NewAdaptiveIBLP(k, g)
	for step := 0; step < 25000; step++ {
		if step%23 == 22 {
			stormed.SetItemLayerTarget(rng.Intn(k + 1))
		} else {
			stormed.Access(model.Item(rng.Intn(stormItems)))
		}
	}
	final := stormed.ItemLayerTarget()

	fresh := NewAdaptiveIBLP(k, g)
	fresh.SetItemLayerTarget(final)

	// Warmup: one sequential pass over fresh, storm-disjoint items. It
	// drives > 2k item-layer evictions and > 2k/B block evictions in
	// both caches, so layers and ghosts end as a function of the pass
	// alone. Storm items never reappear, so no storm-era ghost can vote.
	for it := stormItems; it < stormItems+warmItems; it++ {
		stormed.Access(model.Item(it))
		fresh.Access(model.Item(it))
	}
	if got, want := stormed.ItemLayerTarget(), fresh.ItemLayerTarget(); got != want {
		t.Fatalf("after warmup: targets diverged stormed=%d fresh=%d", got, want)
	}

	// Probe: random traffic over the warmup range, with more external
	// moves applied to both. Every decision must match exactly.
	for step := 0; step < 30000; step++ {
		if step%41 == 40 {
			target := rng.Intn(k + 1)
			stormed.SetItemLayerTarget(target)
			fresh.SetItemLayerTarget(target)
		}
		it := model.Item(stormItems + rng.Intn(warmItems))
		as := stormed.Access(it)
		af := fresh.Access(it)
		if as.Hit != af.Hit {
			t.Fatalf("probe step %d (item %d): stormed hit=%v fresh hit=%v", step, it, as.Hit, af.Hit)
		}
		if !equalItems(sortedCopy(as.Loaded()), sortedCopy(af.Loaded())) ||
			!equalItems(sortedCopy(as.Evicted()), sortedCopy(af.Evicted())) {
			t.Fatalf("probe step %d (item %d): load/evict sets diverge", step, it)
		}
		if stormed.ItemLayerTarget() != fresh.ItemLayerTarget() {
			t.Fatalf("probe step %d: targets diverged %d vs %d",
				step, stormed.ItemLayerTarget(), fresh.ItemLayerTarget())
		}
		if stormed.Len() != fresh.Len() {
			t.Fatalf("probe step %d: Len diverged %d vs %d", step, stormed.Len(), fresh.Len())
		}
		if step%199 == 0 {
			checkAdaptiveInvariants(t, stormed, step)
			checkAdaptiveInvariants(t, fresh, step)
		}
	}
}
