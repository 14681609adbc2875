// Package core implements the paper's contributions: the Item-Block
// Layered Partitioning (IBLP) deterministic policy of §5, the
// Granularity-Change Marking (GCM) randomized policy of §6, and the §5.3
// partition-sizing rules that split a cache of size k into an item layer
// of size i and a block layer of size b = k − i.
package core

import (
	"fmt"
	"math/bits"

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
// Both layers keep an lrulist.Dense recency order and a bitset of
// members. The bitsets and the lists' ID tables grow with the largest ID
// seen, the lists' links with the layers' occupancy, so steady-state
// accesses neither hash nor allocate. Under model.Fixed a block is a
// range of bits: the block layer drops a block, and admits one it can
// hold whole, 64 items at a time by word operations rather than probing
// it item by item.
type IBLP struct {
	itemSize  int // i
	blockSize int // b
	geo       model.Geometry
	fixed     int // B under model.Fixed, else 0

	items *lrulist.Dense[model.Item] // item layer, MRU..LRU

	blocks    *lrulist.Dense[model.Block] // block layer order, MRU..LRU
	blockUsed int                         // items currently in block layer

	// inBlock holds block-layer membership; a block's resident set is
	// re-derived from the geometry filtered by inBlock (blocks are
	// disjoint, so the set bits of a resident block belong to it alone).
	// inItem mirrors the item layer's membership so present is two
	// packed-bitset probes, one bit per item, instead of a random load
	// from the recency list's 4-byte-per-item ID table.
	inBlock bitset.Set
	inItem  bitset.Set

	// promoteOnItemHit is an ablation switch (see NewIBLPPromoteAll): when
	// set, item-layer hits also refresh the block layer's LRU order,
	// violating the §5.1 design rule. Off for the real policy.
	promoteOnItemHit bool

	ch      cachesim.Changes
	want    []model.Item // scratch: the item set being admitted
	trunc   []model.Item // scratch: truncated admission set (oversized blocks)
	scratch []model.Item // scratch: victim-block enumeration
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
	return newIBLP(i, b, g, 0)
}

// newIBLP is NewIBLP with its arrays presized for item IDs
// [0, universe), expanded to whole blocks (see model.ItemUniverse).
func newIBLP(i, b int, g model.Geometry, universe int) *IBLP {
	if i < 0 || b < 0 || i+b < 1 {
		panic(fmt.Sprintf("core: IBLP layer sizes i=%d b=%d invalid", i, b))
	}
	if g == nil {
		panic("core: IBLP nil geometry")
	}
	universe = model.ItemUniverse(g, universe)
	return &IBLP{
		itemSize:  i,
		blockSize: b,
		geo:       g,
		fixed:     model.FixedSize(g),
		items:     lrulist.NewDense[model.Item](universe),
		blocks:    lrulist.NewDense[model.Block](model.BlockUniverse(g, universe)),
		inBlock:   bitset.New(universe),
		inItem:    bitset.New(universe),
		ch:        cachesim.NewChanges(g),
	}
}

// NewIBLPEvenSplit returns an IBLP cache with i = ⌈k/2⌉, b = ⌊k/2⌋, the
// split analyzed in §7.3.
func NewIBLPEvenSplit(k int, g model.Geometry) *IBLP {
	return NewIBLP((k+1)/2, k/2, g)
}

// NewIBLPEvenSplitBounded is NewIBLPEvenSplit presized for item IDs
// [0, universe), so a replay inside that range never grows its
// ID-indexed tables; the two recency lists' nodes grow with the layers'
// occupancy on the first replay, up to the layer sizes, and Reset keeps
// them. It stays for the benchmark module; new code calls
// NewIBLPEvenSplit.
func NewIBLPEvenSplitBounded(k int, g model.Geometry, universe int) *IBLP {
	return newIBLP((k+1)/2, k/2, g, universe)
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
	for c.items.Len() > c.itemSize {
		victim, _ := c.items.PopBack()
		c.inItem.Remove(uint64(victim))
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

// Access implements cachesim.Cache. Every layer operation runs on the
// concrete flat-array types, so the whole request — recency promotion,
// bitset membership, victim scans — compiles to inlined array
// arithmetic and direct calls.
//
//gclint:hotpath
func (c *IBLP) Access(it model.Item) cachesim.Access {
	if c.items.MoveToFront(it) {
		if c.promoteOnItemHit {
			// MoveToFront on an absent block is a no-op.
			c.blocks.MoveToFront(c.geo.BlockOf(it))
		}
		if c.probe != nil {
			c.probe.Observe(obs.Event{Kind: obs.EvHitItemLayer, Item: it})
		}
		return cachesim.Access{Hit: true}
	}

	blk := c.geo.BlockOf(it)
	if c.inBlock.Has(uint64(it)) {
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

// present reports overall membership (either layer).
//
//gclint:hotpath
func (c *IBLP) present(it model.Item) bool {
	return c.inItem.Has(uint64(it)) || c.inBlock.Has(uint64(it))
}

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
	c.inItem.Add(uint64(it))
	if !was {
		c.ch.Load(it)
	}
	for c.items.Len() > c.itemSize {
		victim, _ := c.items.PopBack()
		c.inItem.Remove(uint64(victim))
		if !c.present(victim) {
			c.ch.Evict(victim)
		}
	}
}

// admitBlockLayer loads blk's full item set into the block layer,
// evicting LRU blocks until it fits. Blocks larger than the layer are
// truncated around the requested item. A whole Fixed block is admitted
// a word at a time: blk is not resident, so none of its bits is set in
// inBlock, and the items it loads are those absent from the item layer.
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
	n := c.fixed
	words := n != 0 && n <= c.blockSize
	var want []model.Item
	if !words {
		c.want = model.AppendItemsOf(c.geo, c.want[:0], blk)
		want = c.want
		if len(want) > c.blockSize {
			c.trunc = model.TruncateAround(c.trunc, want, requested, c.blockSize)
			want = c.trunc
		}
		n = len(want)
	}
	for c.blockUsed+n > c.blockSize {
		victim, ok := c.blocks.Back()
		if !ok {
			break
		}
		c.dropBlockLayer(victim)
	}
	if c.blockUsed+n > c.blockSize {
		return // layer cannot hold this block at all
	}
	c.blocks.PushFront(blk)
	c.blockUsed += n
	if words {
		for id, end := uint64(blk)*uint64(n), uint64(blk+1)*uint64(n); id < end; id += 64 {
			m := bitset.Mask(end - id)
			c.ch.LoadBits(id, m&^c.inItem.Word(id, m))
			c.inBlock.AddWord(id, m)
		}
		return
	}
	for _, x := range want {
		was := c.present(x)
		c.inBlock.Add(uint64(x))
		if !was {
			c.ch.Load(x)
		}
	}
}

// dropBlockLayer evicts blk from the block layer; its items leave in
// geometry order. A Fixed block leaves a word at a time.
//
//gclint:hotpath
func (c *IBLP) dropBlockLayer(blk model.Block) {
	if n := uint64(c.fixed); n != 0 {
		for id, end := uint64(blk)*n, uint64(blk+1)*n; id < end; id += 64 {
			held := c.inBlock.Word(id, bitset.Mask(end-id))
			c.inBlock.RemoveWord(id, held)
			c.blockUsed -= bits.OnesCount64(held)
			// The block-layer bits are clear now, so presence reduces
			// to item-layer membership.
			c.ch.EvictBits(id, held&^c.inItem.Word(id, held))
		}
		c.blocks.Remove(blk)
		return
	}
	c.scratch = model.AppendItemsOf(c.geo, c.scratch[:0], blk)
	for _, x := range c.scratch {
		if c.inBlock.Has(uint64(x)) {
			c.inBlock.Remove(uint64(x))
			c.blockUsed--
			// The block-layer bit is clear now, so presence reduces to
			// item-layer membership.
			if !c.inItem.Has(uint64(x)) {
				c.ch.Evict(x)
			}
		}
	}
	c.blocks.Remove(blk)
}

// SetProbe implements cachesim.Instrumented. A nil probe restores the
// unobserved fast path.
func (c *IBLP) SetProbe(p obs.Probe) { c.probe = p }

// Contains implements cachesim.Cache.
func (c *IBLP) Contains(it model.Item) bool { return c.present(it) }

// Len returns the number of distinct items present across both layers.
func (c *IBLP) Len() int {
	n := c.blockUsed
	c.items.Each(func(it model.Item) bool {
		if !c.inBlock.Has(uint64(it)) {
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
	c.inBlock.Clear()
	c.inItem.Clear()
	c.blockUsed = 0
}
