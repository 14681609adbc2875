package policy

import (
	"fmt"
	"math/bits"

	"gccache/internal/bitset"
	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
)

// BlockLRU is the paper's Block Cache baseline: it raises the cache's own
// granularity to blocks — on a miss it loads *all* items of the requested
// block, and it evicts whole blocks in LRU order. It performs well on
// spatial locality but suffers the pollution penalty of Theorem 3: when
// only one item per block is live, the effective capacity shrinks by B×.
//
// Item membership is a bitset and the block LRU order an lrulist.Dense,
// both growing with the largest ID seen, so steady-state accesses
// neither hash nor allocate. Under model.Fixed a block is a range of
// bits: BlockLRU drops a block, and loads one it can hold whole, 64
// items at a time by word operations rather than item by item.
type BlockLRU struct {
	capacity int
	geo      model.Geometry
	fixed    int              // B under model.Fixed, else 0
	shift    model.BlockShift // finds a request's block
	order    *lrulist.Dense[model.Block]
	size     int // total items held

	// present is item membership; a block's resident set is re-derived
	// from the geometry filtered by present (blocks are disjoint, so the
	// bits of a resident block belong to it alone).
	present bitset.Set

	ch      cachesim.Changes
	want    []model.Item // scratch: the item set being admitted
	trunc   []model.Item // scratch: truncated admission set (oversized blocks)
	scratch []model.Item // scratch: victim-block enumeration
}

var _ cachesim.Cache = (*BlockLRU)(nil)

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
		fixed:    model.FixedSize(g),
		shift:    model.NewBlockShift(g),
		order:    lrulist.NewDense[model.Block](0),
		ch:       cachesim.NewChanges(g),
	}
}

// Name implements cachesim.Cache.
func (c *BlockLRU) Name() string { return "block-lru" }

// Access implements cachesim.Cache.
//
//gclint:hotpath
func (c *BlockLRU) Access(it model.Item) cachesim.Access {
	if c.present.Has(uint64(it)) {
		c.order.MoveToFront(c.shift.BlockOf(it))
		return cachesim.Access{Hit: true}
	}
	blk := c.shift.BlockOf(it)
	c.ch.Begin(blk)

	// If a truncated copy of the block is resident (possible only when a
	// block exceeded capacity earlier), discard it before reloading; c.ch
	// nets the items the reload brings straight back.
	if c.order.Contains(blk) {
		c.dropBlock(blk)
	}

	// A whole Fixed block loads a word at a time; otherwise list it.
	n := c.fixed
	words := n != 0 && n <= c.capacity
	var want []model.Item
	if !words {
		c.want = model.AppendItemsOf(c.geo, c.want[:0], blk)
		want = c.want
		// Degenerate case: a block larger than the whole cache. Load the
		// requested item plus as many siblings as fit.
		if len(want) > c.capacity {
			c.trunc = model.TruncateAround(c.trunc, want, it, c.capacity)
			want = c.trunc
		}
		n = len(want)
	}

	// Evict whole LRU blocks until the new block fits.
	for c.size+n > c.capacity {
		victim, ok := c.order.Back()
		if !ok {
			break
		}
		c.dropBlock(victim)
	}

	c.order.PushFront(blk)
	c.size += n
	if words {
		for id, end := uint64(blk)*uint64(n), uint64(blk+1)*uint64(n); id < end; id += 64 {
			m := bitset.Mask(end - id)
			c.present.AddWord(id, m)
			c.ch.LoadBits(id, m)
		}
		return c.ch.Miss()
	}
	for _, x := range want {
		c.present.Add(uint64(x))
		c.ch.Load(x)
	}
	return c.ch.Miss()
}

// dropBlock evicts blk, deriving its resident set from the bitset:
// blocks are disjoint, so exactly the set items of blk belong to it.
// The items leave in geometry order, a Fixed block a word at a time.
//
//gclint:hotpath
func (c *BlockLRU) dropBlock(blk model.Block) {
	if n := uint64(c.fixed); n != 0 {
		for id, end := uint64(blk)*n, uint64(blk+1)*n; id < end; id += 64 {
			held := c.present.Word(id, bitset.Mask(end-id))
			c.present.RemoveWord(id, held)
			c.ch.EvictBits(id, held)
			c.size -= bits.OnesCount64(held)
		}
		c.order.Remove(blk)
		return
	}
	c.scratch = model.AppendItemsOf(c.geo, c.scratch[:0], blk)
	for _, x := range c.scratch {
		if c.present.Has(uint64(x)) {
			c.present.Remove(uint64(x))
			c.ch.Evict(x)
			c.size--
		}
	}
	c.order.Remove(blk)
}

// Contains implements cachesim.Cache.
func (c *BlockLRU) Contains(it model.Item) bool { return c.present.Has(uint64(it)) }

// Len implements cachesim.Cache.
func (c *BlockLRU) Len() int { return c.size }

// Capacity implements cachesim.Cache.
func (c *BlockLRU) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *BlockLRU) Reset() {
	c.order.Clear()
	c.present.Clear()
	c.size = 0
}
