package policy

import (
	"fmt"

	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
	"gccache/internal/obs"
)

// BlockLRU is the paper's Block Cache baseline: it raises the cache's own
// granularity to blocks — on a miss it loads *all* items of the requested
// block, and it evicts whole blocks in LRU order. It performs well on
// spatial locality but suffers the pollution penalty of Theorem 3: when
// only one item per block is live, the effective capacity shrinks by B×.
//
// Two interchangeable representations back the policy. The generic path
// tracks per-block resident slices and an item-membership map and accepts
// any item ID. The bounded (dense) path — NewBlockLRUBounded — replaces
// both maps with flat bitsets over a declared item universe and keys the
// LRU order with lrulist.Dense, so steady-state accesses neither hash nor
// allocate. Eviction decisions are identical on both paths.
type BlockLRU struct {
	capacity int
	geo      model.Geometry
	order    lrulist.Order[model.Block]
	size     int // total items held

	// Generic path (nil on the dense path):
	resident map[model.Block][]model.Item // items actually held per block
	present  map[model.Item]struct{}

	// Dense path (nil on the generic path): presentBits[it] is item
	// membership; a block's resident set is re-derived from the geometry
	// filtered by presentBits (blocks are disjoint, so the bits of a
	// resident block belong to it alone).
	presentBits []bool

	ch      cachesim.Changes
	want    []model.Item // scratch: the item set being admitted
	trunc   []model.Item // scratch: truncated admission set (oversized blocks)
	scratch []model.Item // scratch: victim-block enumeration
	probe   obs.Probe
}

var (
	_ cachesim.Cache        = (*BlockLRU)(nil)
	_ cachesim.Instrumented = (*BlockLRU)(nil)
)

// NewBlockLRU returns a Block Cache holding at most k items under g.
// It panics if k < 1 or g is nil.
func NewBlockLRU(k int, g model.Geometry) *BlockLRU {
	if k < 1 {
		panic(fmt.Sprintf("policy: BlockLRU capacity %d < 1", k))
	}
	if g == nil {
		panic("policy: BlockLRU nil geometry")
	}
	return &BlockLRU{
		capacity: k,
		geo:      g,
		order:    lrulist.New[model.Block](k / g.BlockSize()),
		resident: make(map[model.Block][]model.Item),
		present:  make(map[model.Item]struct{}),
		ch:       cachesim.NewChanges(g),
	}
}

// NewBlockLRUBounded returns a Block Cache on the dense path for item IDs
// [0, universe): flat membership flags and a Dense block-LRU order — no
// map operations and no steady-state allocation. The bound is expanded
// to cover whole blocks (see model.ItemUniverse); accessing an item
// beyond the expanded bound panics. It falls back to the generic
// representation when universe is out of the bounded range or no
// block-ID bound is derivable from g.
func NewBlockLRUBounded(k int, g model.Geometry, universe int) *BlockLRU {
	c := NewBlockLRU(k, g)
	universe = model.ItemUniverse(g, universe)
	blockUniverse := model.BlockUniverse(g, universe)
	if universe <= 0 || universe > cachesim.MaxBoundedUniverse ||
		blockUniverse <= 0 || blockUniverse > cachesim.MaxBoundedUniverse {
		return c
	}
	c.resident = nil
	c.present = nil
	c.presentBits = make([]bool, universe)
	c.order = lrulist.NewDense[model.Block](blockUniverse)
	return c
}

// Name implements cachesim.Cache.
func (c *BlockLRU) Name() string { return "block-lru" }

// Access implements cachesim.Cache.
func (c *BlockLRU) Access(it model.Item) cachesim.Access {
	if c.presentBits != nil {
		return c.accessDense(it)
	}
	if _, ok := c.present[it]; ok {
		c.order.MoveToFront(c.geo.BlockOf(it))
		if c.probe != nil {
			c.probe.Observe(obs.Event{Kind: obs.EvHit, Item: it, Block: c.geo.BlockOf(it)})
		}
		return cachesim.Access{Hit: true}
	}
	blk := c.geo.BlockOf(it)
	c.ch.Begin(blk)

	// If a truncated copy of the block is resident (possible only when a
	// block exceeded capacity earlier), discard it before reloading; c.ch
	// nets the items the reload brings straight back.
	if old, ok := c.resident[blk]; ok {
		c.dropBlock(blk, old)
	}

	c.want = model.AppendItemsOf(c.geo, c.want[:0], blk)
	// Degenerate case: a block larger than the whole cache. Load the
	// requested item plus as many siblings as fit.
	want := c.want
	if len(want) > c.capacity {
		c.trunc = model.TruncateAround(c.trunc, want, it, c.capacity)
		want = c.trunc
	}

	// Evict whole LRU blocks until the new block fits.
	for c.size+len(want) > c.capacity {
		victim, ok := c.order.Back()
		if !ok {
			break
		}
		c.dropBlock(victim, c.resident[victim])
	}

	hold := make([]model.Item, len(want))
	copy(hold, want)
	c.resident[blk] = hold
	c.order.PushFront(blk)
	c.size += len(hold)
	for _, x := range hold {
		c.present[x] = struct{}{}
		c.ch.Load(x)
	}
	return c.ch.Miss(c.probe, it)
}

// SetProbe implements cachesim.Instrumented. A nil probe restores the
// unobserved fast path.
func (c *BlockLRU) SetProbe(p obs.Probe) { c.probe = p }

// accessDense is Access on the bitset representation; decisions and
// reported net changes are identical to the generic path.
//
//gclint:hotpath
func (c *BlockLRU) accessDense(it model.Item) cachesim.Access {
	if c.presentBits[it] {
		c.order.MoveToFront(c.geo.BlockOf(it))
		if c.probe != nil {
			c.probe.Observe(obs.Event{Kind: obs.EvHit, Item: it, Block: c.geo.BlockOf(it)})
		}
		return cachesim.Access{Hit: true}
	}
	blk := c.geo.BlockOf(it)
	c.ch.Begin(blk)
	if c.order.Contains(blk) {
		c.dropBlockDense(blk)
	}

	c.want = model.AppendItemsOf(c.geo, c.want[:0], blk)
	want := c.want
	if len(want) > c.capacity {
		c.trunc = model.TruncateAround(c.trunc, want, it, c.capacity)
		want = c.trunc
	}

	for c.size+len(want) > c.capacity {
		victim, ok := c.order.Back()
		if !ok {
			break
		}
		c.dropBlockDense(victim)
	}

	c.order.PushFront(blk)
	c.size += len(want)
	for _, x := range want {
		c.presentBits[x] = true
		c.ch.Load(x)
	}
	return c.ch.Miss(c.probe, it)
}

func (c *BlockLRU) dropBlock(blk model.Block, items []model.Item) {
	for _, x := range items {
		delete(c.present, x)
		c.ch.Evict(x)
	}
	c.size -= len(items)
	delete(c.resident, blk)
	c.order.Remove(blk)
}

// dropBlockDense evicts blk, deriving its resident set from the bitset:
// blocks are disjoint, so exactly the set items of blk belong to it.
//
//gclint:hotpath
func (c *BlockLRU) dropBlockDense(blk model.Block) {
	c.scratch = model.AppendItemsOf(c.geo, c.scratch[:0], blk)
	for _, x := range c.scratch {
		if c.presentBits[x] {
			c.presentBits[x] = false
			c.ch.Evict(x)
			c.size--
		}
	}
	c.order.Remove(blk)
}

// Contains implements cachesim.Cache.
func (c *BlockLRU) Contains(it model.Item) bool {
	if c.presentBits != nil {
		return c.presentBits[it]
	}
	_, ok := c.present[it]
	return ok
}

// Len implements cachesim.Cache.
func (c *BlockLRU) Len() int { return c.size }

// Capacity implements cachesim.Cache.
func (c *BlockLRU) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *BlockLRU) Reset() {
	c.order.Clear()
	if c.presentBits != nil {
		clear(c.presentBits)
	} else {
		clear(c.resident)
		clear(c.present)
	}
	c.size = 0
}
