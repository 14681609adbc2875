// Package core implements the paper's contributions: the Item-Block
// Layered Partitioning (IBLP) deterministic policy of §5, the
// Granularity-Change Marking (GCM) randomized policy of §6, and the §5.3
// partition-sizing rules that split a cache of size k into an item layer
// of size i and a block layer of size b = k − i.
package core

import (
	"fmt"

	"gccache/internal/bitset"
	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
	"gccache/internal/obs"
)

// IBLP is Item-Block Layered Partitioning (§5.1): an Item Cache running
// LRU (the *item layer*, size i) in front of a Block Cache running LRU
// (the *block layer*, size b). Every access is served by the item layer
// first; only accesses that miss there reach the block layer, so bursts
// of temporal locality cannot reorder the block layer's LRU list. On a
// full miss the requested item enters the item layer and its entire block
// enters the block layer. The layers are neither inclusive nor exclusive:
// each holds its own copy.
//
// Two interchangeable representations back the policy: the generic path
// (maps keyed by item/block IDs, any IDs accepted) and the bounded dense
// path (NewIBLPBounded — flat bitsets plus lrulist.Dense orders over a
// declared universe; steady-state accesses neither hash nor allocate).
// Eviction decisions are identical on both paths.
type IBLP struct {
	itemSize  int // i
	blockSize int // b
	geo       model.Geometry

	items lrulist.Order[model.Item] // item layer, MRU..LRU

	blocks    lrulist.Order[model.Block] // block layer order, MRU..LRU
	blockUsed int                        // items currently in block layer

	// Generic path (nil on the dense path):
	resident map[model.Block][]model.Item // items held per block-layer block
	inBlock  map[model.Item]struct{}      // membership in block layer

	// Dense path (nil on the generic path): inBlockBits holds block-layer
	// membership; a block's resident set is re-derived from the geometry
	// filtered by inBlockBits (blocks are disjoint, so the set bits of a
	// resident block belong to it alone). inItemBits mirrors the item
	// layer's membership so presentDense is two packed-bitset probes
	// instead of a random load into the recency list's link array.
	inBlockBits bitset.Set
	inItemBits  bitset.Set
	// itemsDense/blocksDense are the concrete types behind items/blocks
	// on the dense path. The hot path calls them directly instead of
	// dispatching through the Order interface — devirtualization is
	// worth ~20% of batched serving throughput. Contains, PopBack and
	// Back then inline into the access loop; MoveToFront, PushFront and
	// Remove exceed the inlining budget and stay direct calls.
	itemsDense  *lrulist.Dense[model.Item]
	blocksDense *lrulist.Dense[model.Block]

	// promoteOnItemHit is an ablation switch (see NewIBLPPromoteAll): when
	// set, item-layer hits also refresh the block layer's LRU order,
	// violating the §5.1 design rule. Off for the real policy.
	promoteOnItemHit bool

	ch      cachesim.Changes
	want    []model.Item // scratch: the item set being admitted
	trunc   []model.Item // scratch: truncated admission set (oversized blocks)
	scratch []model.Item // scratch: victim-block enumeration (dense)
	probe   obs.Probe
}

var (
	_ cachesim.Cache          = (*IBLP)(nil)
	_ cachesim.Instrumented   = (*IBLP)(nil)
	_ cachesim.LayerResizable = (*IBLP)(nil)
)

// NewIBLP returns an IBLP cache with item layer i and block layer b under
// geometry g. Either layer may be zero (i=0 degenerates to a Block Cache,
// b=0 — or any b smaller than the largest block — to an Item Cache). It
// panics if i < 0, b < 0, i+b < 1, or g is nil.
func NewIBLP(i, b int, g model.Geometry) *IBLP {
	if i < 0 || b < 0 || i+b < 1 {
		panic(fmt.Sprintf("core: IBLP layer sizes i=%d b=%d invalid", i, b))
	}
	if g == nil {
		panic("core: IBLP nil geometry")
	}
	return &IBLP{
		itemSize:  i,
		blockSize: b,
		geo:       g,
		items:     lrulist.New[model.Item](i),
		blocks:    lrulist.New[model.Block](b/max(1, g.BlockSize()) + 1),
		resident:  make(map[model.Block][]model.Item),
		inBlock:   make(map[model.Item]struct{}),
		ch:        cachesim.NewChanges(g),
	}
}

// NewIBLPBounded returns an IBLP cache on the dense path for item IDs
// [0, universe): bitset membership and Dense recency orders for both
// layers — no map operations and no steady-state allocation. The bound
// is expanded to cover whole blocks (see model.ItemUniverse); accessing
// an item beyond the expanded bound panics. It falls back to the generic
// representation when universe is out of the bounded range or no
// block-ID bound is derivable from g.
func NewIBLPBounded(i, b int, g model.Geometry, universe int) *IBLP {
	c := NewIBLP(i, b, g)
	universe = model.ItemUniverse(g, universe)
	blockUniverse := model.BlockUniverse(g, universe)
	if universe <= 0 || universe > cachesim.MaxBoundedUniverse ||
		blockUniverse <= 0 || blockUniverse > cachesim.MaxBoundedUniverse {
		return c
	}
	c.resident = nil
	c.inBlock = nil
	c.inBlockBits = bitset.New(universe)
	c.inItemBits = bitset.New(universe)
	c.itemsDense = lrulist.NewDense[model.Item](universe)
	c.blocksDense = lrulist.NewDense[model.Block](blockUniverse)
	c.items = c.itemsDense
	c.blocks = c.blocksDense
	return c
}

// NewIBLPEvenSplit returns an IBLP cache with i = ⌈k/2⌉, b = ⌊k/2⌋, the
// split analyzed in §7.3.
func NewIBLPEvenSplit(k int, g model.Geometry) *IBLP {
	return NewIBLP((k+1)/2, k/2, g)
}

// NewIBLPEvenSplitBounded is NewIBLPEvenSplit on the dense path (see
// NewIBLPBounded).
func NewIBLPEvenSplitBounded(k int, g model.Geometry, universe int) *IBLP {
	return NewIBLPBounded((k+1)/2, k/2, g, universe)
}

// NewIBLPPromoteAll returns the ablation variant in which item-layer hits
// *do* reorder the block layer. §5.1 explains why this is harmful: blocks
// with a few hot items pollute the block layer. Exposed so the effect can
// be measured (experiment E8).
func NewIBLPPromoteAll(i, b int, g model.Geometry) *IBLP {
	c := NewIBLP(i, b, g)
	c.promoteOnItemHit = true
	return c
}

// ItemLayerSize returns i.
func (c *IBLP) ItemLayerSize() int { return c.itemSize }

// BlockLayerSize returns b.
func (c *IBLP) BlockLayerSize() int { return c.blockSize }

// ItemLayerTarget implements cachesim.LayerResizable; for a fixed-split
// IBLP the target is the item-layer size itself.
func (c *IBLP) ItemLayerTarget() int { return c.itemSize }

// SetItemLayerTarget implements cachesim.LayerResizable: repartition to
// an item layer of i (clamped to [0, i+b]) and a block layer of the
// remainder, enforcing the new bounds immediately so the occupancy
// invariants hold before the next access. The move is reported as
// EvLayerResize followed by one EvEvict per item the shrink pushed out.
// Not safe for concurrent use with Access.
func (c *IBLP) SetItemLayerTarget(i int) {
	k := c.itemSize + c.blockSize
	if i < 0 {
		i = 0
	}
	if i > k {
		i = k
	}
	if i == c.itemSize {
		return
	}
	c.itemSize, c.blockSize = i, k-i
	c.ch.Reset()
	c.enforceTargets()
	if c.probe != nil {
		c.probe.Observe(obs.Event{Kind: obs.EvLayerResize, N: int32(i)})
		c.ch.ObserveEvicted(c.probe)
	}
}

// enforceTargets shrinks whichever layer exceeds its configured size —
// the resize path's analogue of the admit loops, which only enforce the
// bounds while admitting.
func (c *IBLP) enforceTargets() {
	if c.itemsDense != nil {
		for c.itemsDense.Len() > c.itemSize {
			victim, _ := c.itemsDense.PopBack()
			c.inItemBits.Remove(uint64(victim))
			if !c.presentDense(victim) {
				c.ch.Evict(victim)
			}
		}
		for c.blockUsed > c.blockSize {
			victim, ok := c.blocksDense.Back()
			if !ok {
				break
			}
			c.dropBlockLayerDense(victim)
		}
		return
	}
	for c.items.Len() > c.itemSize {
		victim, _ := c.items.PopBack()
		if !c.present(victim) {
			c.ch.Evict(victim)
		}
	}
	for c.blockUsed > c.blockSize {
		victim, ok := c.blocks.Back()
		if !ok {
			break
		}
		c.dropBlockLayer(victim)
	}
}

// Name implements cachesim.Cache.
func (c *IBLP) Name() string {
	if c.promoteOnItemHit {
		return fmt.Sprintf("iblp-promote-all(i=%d,b=%d)", c.itemSize, c.blockSize)
	}
	return fmt.Sprintf("iblp(i=%d,b=%d)", c.itemSize, c.blockSize)
}

// Access implements cachesim.Cache.
//
//gclint:hotpath
func (c *IBLP) Access(it model.Item) cachesim.Access {
	if c.itemsDense != nil {
		return c.accessDense(it)
	}
	if c.items.MoveToFront(it) {
		if c.promoteOnItemHit {
			blk := c.geo.BlockOf(it)
			if c.blocks.Contains(blk) {
				c.blocks.MoveToFront(blk)
			}
		}
		if c.probe != nil {
			c.probe.Observe(obs.Event{Kind: obs.EvHitItemLayer, Item: it})
		}
		return cachesim.Access{Hit: true}
	}

	blk := c.geo.BlockOf(it)
	if c.inBlockLayer(it) {
		// Block-layer hit: serve it, refresh the block's recency, and
		// copy the item into the item layer (an internal move — free).
		c.ch.Reset()
		c.blocks.MoveToFront(blk)
		c.admitItemLayer(it)
		if c.probe != nil {
			c.probe.Observe(obs.Event{Kind: obs.EvHitBlockLayer, Item: it, Block: blk})
		}
		return c.ch.Hit(c.probe)
	}

	// Full miss: one unit-cost load brings the requested item into the
	// item layer and the whole block into the block layer. The requested
	// item always ends up resident: either the item layer holds it, or
	// (i = 0) the block layer admits a copy truncated around it. An
	// item-layer victim from this block, or a stale truncated copy being
	// replaced, leaves and re-enters within the step; c.ch nets it.
	c.ch.Begin(blk)
	c.admitItemLayer(it)
	c.admitBlockLayer(blk, it)
	return c.ch.Miss(c.probe, it)
}

// accessDense is Access on the bounded path, with every layer
// operation on the concrete flat-array types so the whole request —
// recency promotion, bitset membership, victim scans — compiles to
// inlined array arithmetic. It mirrors the generic path below exactly;
// TestIBLPDenseMatchesGeneric pins the equivalence.
//
//gclint:hotpath
func (c *IBLP) accessDense(it model.Item) cachesim.Access {
	if c.itemsDense.MoveToFront(it) {
		if c.promoteOnItemHit {
			// MoveToFront on an absent block is a no-op, matching the
			// generic path's Contains-then-promote.
			c.blocksDense.MoveToFront(c.geo.BlockOf(it))
		}
		if c.probe != nil {
			c.probe.Observe(obs.Event{Kind: obs.EvHitItemLayer, Item: it})
		}
		return cachesim.Access{Hit: true}
	}

	blk := c.geo.BlockOf(it)
	if c.inBlockBits.Has(uint64(it)) {
		c.ch.Reset()
		c.blocksDense.MoveToFront(blk)
		c.admitItemLayerDense(it)
		if c.probe != nil {
			c.probe.Observe(obs.Event{Kind: obs.EvHitBlockLayer, Item: it, Block: blk})
		}
		return c.ch.Hit(c.probe)
	}

	c.ch.Begin(blk)
	c.admitItemLayerDense(it)
	c.admitBlockLayerDense(blk, it)
	return c.ch.Miss(c.probe, it)
}

// presentDense is present with both membership tests inlined.
//
//gclint:hotpath
func (c *IBLP) presentDense(it model.Item) bool {
	return c.inItemBits.Has(uint64(it)) || c.inBlockBits.Has(uint64(it))
}

// admitItemLayerDense mirrors admitItemLayer on concrete types.
//
//gclint:hotpath
func (c *IBLP) admitItemLayerDense(it model.Item) {
	if c.itemSize == 0 {
		return
	}
	was := c.presentDense(it)
	c.itemsDense.PushFront(it)
	c.inItemBits.Add(uint64(it))
	if !was {
		c.ch.Load(it)
	}
	for c.itemsDense.Len() > c.itemSize {
		victim, _ := c.itemsDense.PopBack()
		c.inItemBits.Remove(uint64(victim))
		if !c.presentDense(victim) {
			c.ch.Evict(victim)
		}
	}
}

// admitBlockLayerDense mirrors admitBlockLayer on concrete types.
//
//gclint:hotpath
func (c *IBLP) admitBlockLayerDense(blk model.Block, requested model.Item) {
	if c.blockSize == 0 {
		return
	}
	if c.blocksDense.Contains(blk) {
		// Only possible for a previously truncated copy; replace it.
		c.dropBlockLayerDense(blk)
	}
	c.want = model.AppendItemsOf(c.geo, c.want[:0], blk)
	want := c.want
	if len(want) > c.blockSize {
		c.trunc = model.TruncateAround(c.trunc, want, requested, c.blockSize)
		want = c.trunc
	}
	for c.blockUsed+len(want) > c.blockSize {
		victim, ok := c.blocksDense.Back()
		if !ok {
			break
		}
		c.dropBlockLayerDense(victim)
	}
	if c.blockUsed+len(want) > c.blockSize {
		return // layer cannot hold this block at all
	}
	c.blocksDense.PushFront(blk)
	c.blockUsed += len(want)
	for _, x := range want {
		was := c.presentDense(x)
		c.inBlockBits.Add(uint64(x))
		if !was {
			c.ch.Load(x)
		}
	}
}

// dropBlockLayerDense mirrors dropBlockLayer on concrete types.
//
//gclint:hotpath
func (c *IBLP) dropBlockLayerDense(blk model.Block) {
	c.scratch = model.AppendItemsOf(c.geo, c.scratch[:0], blk)
	for _, x := range c.scratch {
		if c.inBlockBits.Has(uint64(x)) {
			c.inBlockBits.Remove(uint64(x))
			c.blockUsed--
			// The block-layer bit is clear now, so presence reduces to
			// item-layer membership.
			if !c.inItemBits.Has(uint64(x)) {
				c.ch.Evict(x)
			}
		}
	}
	c.blocksDense.Remove(blk)
}

// SetProbe implements cachesim.Instrumented. A nil probe restores the
// unobserved fast path.
func (c *IBLP) SetProbe(p obs.Probe) { c.probe = p }

// admitItemLayer inserts it at the item layer's MRU position, evicting
// its LRU as needed, and maintains overall loaded/evicted accounting.
//
//gclint:hotpath
func (c *IBLP) admitItemLayer(it model.Item) {
	if c.itemSize == 0 {
		return
	}
	was := c.present(it)
	c.items.PushFront(it)
	if !was {
		c.ch.Load(it)
	}
	for c.items.Len() > c.itemSize {
		victim, _ := c.items.PopBack()
		if !c.present(victim) {
			c.ch.Evict(victim)
		}
	}
}

// admitBlockLayer loads blk's full item set into the block layer,
// evicting LRU blocks until it fits. Blocks larger than the layer are
// truncated around the requested item. Generic (map) path only —
// bounded caches route through admitBlockLayerDense.
//
//gclint:hotpath
func (c *IBLP) admitBlockLayer(blk model.Block, requested model.Item) {
	if c.blockSize == 0 {
		return
	}
	if c.blocks.Contains(blk) {
		// Only possible for a previously truncated copy; replace it.
		c.dropBlockLayer(blk)
	}
	c.want = model.AppendItemsOf(c.geo, c.want[:0], blk)
	want := c.want
	if len(want) > c.blockSize {
		c.trunc = model.TruncateAround(c.trunc, want, requested, c.blockSize)
		want = c.trunc
	}
	for c.blockUsed+len(want) > c.blockSize {
		victim, ok := c.blocks.Back()
		if !ok {
			break
		}
		c.dropBlockLayer(victim)
	}
	if c.blockUsed+len(want) > c.blockSize {
		return // layer cannot hold this block at all
	}
	hold := make([]model.Item, len(want)) //gclint:allowalloc generic (map) path only; dense path uses admitBlockLayerDense
	copy(hold, want)
	c.resident[blk] = hold
	c.blocks.PushFront(blk)
	c.blockUsed += len(hold)
	for _, x := range hold {
		was := c.present(x)
		c.inBlock[x] = struct{}{}
		if !was {
			c.ch.Load(x)
		}
	}
}

// dropBlockLayer evicts blk from the block layer. Generic (map) path
// only — bounded caches route through dropBlockLayerDense.
//
//gclint:hotpath
func (c *IBLP) dropBlockLayer(blk model.Block) {
	items := c.resident[blk]
	for _, x := range items {
		delete(c.inBlock, x)
		if !c.present(x) {
			c.ch.Evict(x)
		}
	}
	c.blockUsed -= len(items)
	delete(c.resident, blk)
	c.blocks.Remove(blk)
}

// inBlockLayer reports block-layer membership of it.
//
//gclint:hotpath
func (c *IBLP) inBlockLayer(it model.Item) bool {
	if c.inBlockBits != nil {
		return c.inBlockBits.Has(uint64(it))
	}
	_, ok := c.inBlock[it]
	return ok
}

// present reports overall membership (either layer).
//
//gclint:hotpath
func (c *IBLP) present(it model.Item) bool {
	if c.itemsDense != nil {
		return c.presentDense(it)
	}
	return c.items.Contains(it) || c.inBlockLayer(it)
}

// Contains implements cachesim.Cache.
func (c *IBLP) Contains(it model.Item) bool { return c.present(it) }

// Len returns the number of distinct items present across both layers.
func (c *IBLP) Len() int {
	n := c.blockUsed
	c.items.Each(func(it model.Item) bool {
		if !c.inBlockLayer(it) {
			n++
		}
		return true
	})
	return n
}

// Capacity implements cachesim.Cache; it is i + b, the total space the
// two layers may occupy (duplicated items consume space in both layers,
// exactly as in the paper's non-inclusive, non-exclusive design).
func (c *IBLP) Capacity() int { return c.itemSize + c.blockSize }

// Reset implements cachesim.Cache.
func (c *IBLP) Reset() {
	c.items.Clear()
	c.blocks.Clear()
	if c.inBlockBits != nil {
		c.inBlockBits.Clear()
		c.inItemBits.Clear()
	} else {
		clear(c.resident)
		clear(c.inBlock)
	}
	c.blockUsed = 0
}
