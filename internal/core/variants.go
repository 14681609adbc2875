package core

import (
	"fmt"

	"gccache/internal/bitset"
	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/policy"
)

// IBLPInclusive is the §5.1 ablation in which the block layer is
// *inclusive* of the item layer. As the paper observes, "the item layer
// would not contribute to the overall hit rate": every item-layer
// resident is also a block-layer resident, so the reachable contents are
// exactly those of a Block Cache of size b — with i items of budget spent
// on duplicates. It is implemented as such, a Block Cache that charges
// itself for the wasted item layer.
type IBLPInclusive struct {
	inner     *policy.BlockLRU
	itemSize  int
	blockSize int
}

var _ cachesim.Cache = (*IBLPInclusive)(nil)

// NewIBLPInclusive returns the inclusive ablation variant with nominal
// layer sizes i and b (total budget i+b, useful contents ≤ b).
func NewIBLPInclusive(i, b int, g model.Geometry) *IBLPInclusive {
	if i < 0 || b < 1 {
		panic(fmt.Sprintf("core: IBLPInclusive layer sizes i=%d b=%d invalid", i, b))
	}
	return &IBLPInclusive{inner: policy.NewBlockLRU(b, g), itemSize: i, blockSize: b}
}

// Name implements cachesim.Cache.
func (c *IBLPInclusive) Name() string {
	return fmt.Sprintf("iblp-inclusive(i=%d,b=%d)", c.itemSize, c.blockSize)
}

// Access implements cachesim.Cache.
func (c *IBLPInclusive) Access(it model.Item) cachesim.Access { return c.inner.Access(it) }

// Contains implements cachesim.Cache.
func (c *IBLPInclusive) Contains(it model.Item) bool { return c.inner.Contains(it) }

// Len implements cachesim.Cache.
func (c *IBLPInclusive) Len() int { return c.inner.Len() }

// Capacity implements cachesim.Cache: the full i+b budget, of which only
// b is ever useful — the point of the ablation.
func (c *IBLPInclusive) Capacity() int { return c.itemSize + c.blockSize }

// Reset implements cachesim.Cache.
func (c *IBLPInclusive) Reset() { c.inner.Reset() }

// IBLPExclusive is the §5.1 ablation in which the layers are *exclusive*:
// no item is ever held twice. On a block-layer hit the item migrates out
// of the block copy into the item layer. The paper notes this "would
// avoid duplicating items, but would require a more complicated method of
// tracking items to ensure none are evicted before their lifetimes expire
// in both partitions" — the hazard being that migrated-out items leave
// holes, so a block evicted from the block layer takes its remaining
// (unaccessed) siblings with it even though their spatial lifetime may
// not be over.
type IBLPExclusive struct {
	itemSize  int
	blockSize int
	geo       model.Geometry

	items *lrulist.Dense[model.Item]

	blocks *lrulist.Dense[model.Block]
	// inBlock holds the block layer's items; holes appear as items
	// migrate out. held[blk] counts blk's items in it.
	inBlock   bitset.Set
	held      []int32
	blockUsed int

	ch      cachesim.Changes
	sibBuf  []model.Item // scratch: block enumeration
	want    []model.Item // scratch: the siblings being admitted
	scratch []model.Item // scratch: victim-block enumeration
}

var _ cachesim.Cache = (*IBLPExclusive)(nil)

// NewIBLPExclusive returns the exclusive ablation variant with item layer
// i and block layer b under g.
func NewIBLPExclusive(i, b int, g model.Geometry) *IBLPExclusive {
	if i < 1 || b < 0 {
		panic(fmt.Sprintf("core: IBLPExclusive layer sizes i=%d b=%d invalid", i, b))
	}
	if g == nil {
		panic("core: IBLPExclusive nil geometry")
	}
	return &IBLPExclusive{
		itemSize:  i,
		blockSize: b,
		geo:       g,
		items:     lrulist.NewDense[model.Item](0),
		blocks:    lrulist.NewDense[model.Block](0),
		ch:        cachesim.NewChanges(g),
	}
}

// Name implements cachesim.Cache.
func (c *IBLPExclusive) Name() string {
	return fmt.Sprintf("iblp-exclusive(i=%d,b=%d)", c.itemSize, c.blockSize)
}

// Access implements cachesim.Cache.
func (c *IBLPExclusive) Access(it model.Item) cachesim.Access {
	if c.items.MoveToFront(it) {
		return cachesim.Access{Hit: true, Served: obs.EvHitItemLayer}
	}
	blk := c.geo.BlockOf(it)
	if c.inBlock.Has(uint64(it)) {
		// Block-layer hit: migrate the item into the item layer,
		// leaving a hole in the block copy.
		c.ch.Reset()
		c.removeFromBlock(it, blk)
		c.blocks.MoveToFront(blk)
		c.admitItem(it)
		return c.ch.Hit()
	}

	// Miss: requested item to the item layer, remaining siblings (those
	// not already cached anywhere) to the block layer. An item-layer
	// victim from this block, or a stale partial copy, can leave and come
	// straight back; c.ch nets it.
	c.ch.Begin(blk)
	c.admitItem(it)
	c.ch.Load(it)
	c.admitSiblings(it, blk)
	return c.ch.Miss()
}

// admitItem inserts it, which the item layer does not hold, evicting
// the layer's LRU item when it is full.
func (c *IBLPExclusive) admitItem(it model.Item) {
	if c.items.Len() < c.itemSize {
		c.items.PushFront(it)
		return
	}
	// Exclusive: the evicted item exists nowhere else.
	c.ch.Evict(c.items.ReplaceBack(it))
}

func (c *IBLPExclusive) admitSiblings(it model.Item, blk model.Block) {
	if c.blockSize == 0 {
		return
	}
	if c.blocks.Contains(blk) {
		// Refresh: drop the stale partial copy first.
		c.dropBlock(blk)
	}
	c.sibBuf = model.AppendItemsOf(c.geo, c.sibBuf[:0], blk)
	c.want = c.want[:0]
	for _, sib := range c.sibBuf {
		if sib == it || c.items.Contains(sib) {
			continue
		}
		c.want = append(c.want, sib)
		if len(c.want) >= c.blockSize {
			break
		}
	}
	if len(c.want) == 0 {
		return
	}
	for c.blockUsed+len(c.want) > c.blockSize {
		victim, ok := c.blocks.Back()
		if !ok {
			return // nothing evictable and no room
		}
		c.dropBlock(victim)
	}
	for _, x := range c.want {
		c.inBlock.Add(uint64(x))
		c.ch.Load(x)
	}
	if uint64(blk) >= uint64(len(c.held)) {
		if blk >= lrulist.MaxDenseUniverse {
			panic("core: IBLPExclusive block at or past lrulist.MaxDenseUniverse")
		}
		c.held = append(c.held, make([]int32, int(blk)+1-len(c.held))...)
	}
	c.held[blk] = int32(len(c.want))
	c.blocks.PushFront(blk)
	c.blockUsed += len(c.want)
}

func (c *IBLPExclusive) removeFromBlock(it model.Item, blk model.Block) {
	c.inBlock.Remove(uint64(it))
	c.blockUsed--
	c.held[blk]--
	if c.held[blk] == 0 {
		c.blocks.Remove(blk)
	}
}

// dropBlock evicts blk's remaining items in geometry order.
func (c *IBLPExclusive) dropBlock(blk model.Block) {
	c.scratch = model.AppendItemsOf(c.geo, c.scratch[:0], blk)
	for _, x := range c.scratch {
		if c.inBlock.Has(uint64(x)) {
			c.inBlock.Remove(uint64(x))
			// Exclusive: dropping the block copy is a true eviction —
			// the lifetime hazard §5.1 warns about.
			c.ch.Evict(x)
		}
	}
	c.blockUsed -= int(c.held[blk])
	c.held[blk] = 0
	c.blocks.Remove(blk)
}

// Contains implements cachesim.Cache.
func (c *IBLPExclusive) Contains(it model.Item) bool {
	return c.items.Contains(it) || c.inBlock.Has(uint64(it))
}

// Len implements cachesim.Cache: exclusive, so no double counting.
func (c *IBLPExclusive) Len() int { return c.items.Len() + c.blockUsed }

// Capacity implements cachesim.Cache.
func (c *IBLPExclusive) Capacity() int { return c.itemSize + c.blockSize }

// Reset implements cachesim.Cache.
func (c *IBLPExclusive) Reset() {
	c.items.Clear()
	c.blocks.Clear()
	c.inBlock.Clear()
	clear(c.held)
	c.blockUsed = 0
}

// GCMMarkAll is the §6.1 ablation of GCM that marks *every* loaded item,
// not just the requested one. The paper: "a policy that loads and marks
// every item in the block also has issues ... when the trace does not
// provide spatial locality, the effective size of the cache is reduced by
// the excess items" — marked never-used siblings crowd out live items
// until the phase ends.
type GCMMarkAll struct {
	inner *GCM
}

var _ cachesim.Cache = (*GCMMarkAll)(nil)

// NewGCMMarkAll returns the mark-everything ablation of GCM.
func NewGCMMarkAll(k int, g model.Geometry, seed int64) *GCMMarkAll {
	return &GCMMarkAll{inner: NewGCM(k, g, seed)}
}

// Name implements cachesim.Cache.
func (c *GCMMarkAll) Name() string { return "gcm-mark-all" }

// Access implements cachesim.Cache.
func (c *GCMMarkAll) Access(it model.Item) cachesim.Access {
	a := c.inner.Access(it)
	for _, l := range a.Loaded() {
		c.inner.mark(l)
	}
	return a
}

// Reseed implements cachesim.Reseeder.
func (c *GCMMarkAll) Reseed(seed int64) { c.inner.Reseed(seed) }

// Contains implements cachesim.Cache.
func (c *GCMMarkAll) Contains(it model.Item) bool { return c.inner.Contains(it) }

// Len implements cachesim.Cache.
func (c *GCMMarkAll) Len() int { return c.inner.Len() }

// Capacity implements cachesim.Cache.
func (c *GCMMarkAll) Capacity() int { return c.inner.Capacity() }

// Reset implements cachesim.Cache.
func (c *GCMMarkAll) Reset() { c.inner.Reset() }
