package core

import (
	"fmt"

	"gccache/internal/bitset"
	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
	"gccache/internal/obs"
)

// AdaptiveIBLP extends IBLP with online partition adaptation — the
// repository's answer to the §5.3 dilemma that the optimal i/b split
// depends on the unknown offline comparison size (Figure 6). In the
// style of ARC's ghost lists, it remembers recently evicted item-layer
// items and block-layer blocks; a miss that would have been an
// item-layer hit votes to grow the item layer, and one that would have
// been a block-layer hit votes to grow the block layer. Layer *targets*
// shift by one item (or one block frame) per vote and are enacted lazily
// on subsequent evictions, so the cache never exceeds its total budget.
type AdaptiveIBLP struct {
	capacity int
	geo      model.Geometry

	targetItem int // current item-layer target; block target = capacity − targetItem

	items *lrulist.Dense[model.Item]

	blocks    *lrulist.Dense[model.Block]
	inBlock   bitset.Set // block-layer membership
	blockUsed int
	// lead[blk] is 1 + the requested item of blk's copy if the copy was
	// truncated, 0 if it is whole.
	lead []model.Item

	ghostItems  *lrulist.Dense[model.Item]  // recently evicted from the item layer
	ghostBlocks *lrulist.Dense[model.Block] // recently evicted from the block layer

	ch      cachesim.Changes
	wantBuf []model.Item // scratch: block enumeration
	trunc   []model.Item // scratch: truncated admission set (oversized blocks)
	scratch []model.Item // scratch: victim-block enumeration
	probe   obs.Probe    // receives layer resizes
	rec     obs.Record   // the record given to probe
}

var (
	_ cachesim.Cache          = (*AdaptiveIBLP)(nil)
	_ cachesim.Instrumented   = (*AdaptiveIBLP)(nil)
	_ cachesim.LayerResizable = (*AdaptiveIBLP)(nil)
)

// NewAdaptiveIBLP returns an adaptive-partition IBLP of total capacity k
// under g, starting from an even split. It panics if k < 2 or g is nil.
func NewAdaptiveIBLP(k int, g model.Geometry) *AdaptiveIBLP {
	if k < 2 {
		panic(fmt.Sprintf("core: AdaptiveIBLP capacity %d < 2", k))
	}
	if g == nil {
		panic("core: AdaptiveIBLP nil geometry")
	}
	return &AdaptiveIBLP{
		capacity:    k,
		geo:         g,
		targetItem:  k / 2,
		items:       lrulist.NewDense[model.Item](0),
		blocks:      lrulist.NewDense[model.Block](0),
		ghostItems:  lrulist.NewDense[model.Item](0),
		ghostBlocks: lrulist.NewDense[model.Block](0),
		ch:          cachesim.NewChanges(g),
	}
}

// Name implements cachesim.Cache.
func (c *AdaptiveIBLP) Name() string { return fmt.Sprintf("adaptive-iblp(k=%d)", c.capacity) }

// ItemLayerTarget returns the current adaptive item-layer target.
func (c *AdaptiveIBLP) ItemLayerTarget() int { return c.targetItem }

// SetItemLayerTarget implements cachesim.LayerResizable: move the
// adaptive target to i (clamped to [0, capacity]) and rebalance
// immediately, so an external controller's move is enacted before the
// next access instead of lazily on future evictions. The internal ghost
// votes keep fine-tuning ±1 around the new setpoint afterwards. The
// move is reported as one EvLayerResize record listing the items the
// rebalance pushed out. Not safe for concurrent use with Access.
func (c *AdaptiveIBLP) SetItemLayerTarget(i int) {
	i = min(c.capacity, max(0, i))
	if i == c.targetItem {
		return
	}
	c.ch.Reset()
	c.targetItem = i
	c.rebalance()
	c.resized(c.ch.Hit().Evicted())
}

// Access implements cachesim.Cache.
//
//gclint:hotpath
func (c *AdaptiveIBLP) Access(it model.Item) cachesim.Access {
	blk := c.geo.BlockOf(it)
	if c.items.Contains(it) {
		c.items.MoveToFront(it)
		return cachesim.Access{Hit: true, Served: obs.EvHitItemLayer}
	}
	if c.inBlock.Has(uint64(it)) {
		c.ch.Reset()
		c.blocks.MoveToFront(blk)
		c.admitItemLayer(it)
		c.rebalance()
		return c.ch.Hit()
	}

	// Miss: consult the ghosts before loading. The item layer may grow
	// until only one block frame remains (spatial protection: full-block
	// accesses can always be matched by a large item layer on *capacity*,
	// but only a block frame delivers cold-miss spatial hits).
	B := max(1, c.geo.BlockSize())
	maxItemTarget := c.capacity - B
	if maxItemTarget < c.capacity/2 {
		maxItemTarget = c.capacity
	}
	// Votes are symmetric (±1 item): a ±B block-sized step lets streaming
	// phantom-hit votes overpower temporal ones and pin the partition
	// just below a working-set cliff.
	if c.ghostItems.Contains(it) {
		c.ghostItems.Remove(it)
		c.setTargetItem(min(maxItemTarget, c.targetItem+1))
	} else if c.ghostBlocks.Contains(blk) {
		c.ghostBlocks.Remove(blk)
		c.setTargetItem(max(0, c.targetItem-1))
	}

	// Replacing a stale truncated copy drops items the reload brings
	// straight back; c.ch nets them.
	c.ch.Begin(blk)
	c.admitItemLayer(it)
	c.admitBlockLayer(blk, it)
	c.rebalance()
	return c.ch.Miss()
}

// setTargetItem moves the adaptive item-layer target on a ghost vote,
// reporting the move as an EvLayerResize record. The access's own
// record lists what the move evicts.
func (c *AdaptiveIBLP) setTargetItem(target int) {
	if target == c.targetItem {
		return
	}
	c.targetItem = target
	c.resized(nil)
}

// resized reports a move of the item-layer target, with the items it
// evicted, to the probe.
func (c *AdaptiveIBLP) resized(evicted []model.Item) {
	if c.probe != nil {
		c.rec = obs.Record{Kind: obs.EvLayerResize, N: int32(c.targetItem), Evicted: evicted}
		c.probe.Observe(&c.rec)
	}
}

// SetProbe implements cachesim.Instrumented: p receives the
// EvLayerResize record of each move of the item-layer target. A nil
// probe detaches it.
func (c *AdaptiveIBLP) SetProbe(p obs.Probe) { c.probe = p }

func (c *AdaptiveIBLP) admitItemLayer(it model.Item) {
	was := c.present(it)
	c.items.PushFront(it)
	c.ghostItems.Remove(it)
	if !was {
		c.ch.Load(it)
	}
}

func (c *AdaptiveIBLP) admitBlockLayer(blk model.Block, requested model.Item) {
	targetBlock := c.capacity - c.targetItem
	if targetBlock <= 0 {
		return
	}
	if c.blocks.Contains(blk) {
		c.dropBlock(blk, false)
	}
	c.wantBuf = model.AppendItemsOf(c.geo, c.wantBuf[:0], blk)
	want := c.wantBuf
	truncated := len(want) > targetBlock
	if truncated {
		c.trunc = model.TruncateAround(c.trunc, want, requested, targetBlock)
		want = c.trunc
	}
	for c.blockUsed+len(want) > targetBlock {
		victim, ok := c.blocks.Back()
		if !ok {
			break
		}
		c.dropBlock(victim, true)
	}
	if c.blockUsed+len(want) > targetBlock {
		return
	}
	c.blocks.PushFront(blk)
	if truncated {
		if uint64(blk) >= uint64(len(c.lead)) {
			c.lead = bitset.Grow(c.lead, uint64(blk))
		}
		c.lead[blk] = requested + 1
	}
	c.ghostBlocks.Remove(blk)
	c.blockUsed += len(want)
	for _, x := range want {
		was := c.present(x)
		c.inBlock.Add(uint64(x))
		if !was {
			c.ch.Load(x)
		}
	}
}

// rebalance enacts the current targets: shrink whichever layer exceeds
// its target, and trim ghosts to bounded sizes.
func (c *AdaptiveIBLP) rebalance() {
	for c.items.Len() > c.targetItem {
		victim, ok := c.items.PopBack()
		if !ok {
			break
		}
		c.ghostItems.PushFront(victim)
		if !c.present(victim) {
			c.ch.Evict(victim)
		}
	}
	targetBlock := c.capacity - c.targetItem
	for c.blockUsed > targetBlock {
		victim, ok := c.blocks.Back()
		if !ok {
			break
		}
		c.dropBlock(victim, true)
	}
	// Ghosts remember up to twice the capacity: one-pass traffic churns
	// the real layers fast, and a ghost that forgets before the first
	// re-reference never votes.
	for c.ghostItems.Len() > 2*c.capacity {
		c.ghostItems.PopBack()
	}
	maxGhostBlocks := 2*c.capacity/max(1, c.geo.BlockSize()) + 1
	for c.ghostBlocks.Len() > maxGhostBlocks {
		c.ghostBlocks.PopBack()
	}
}

// dropBlock evicts blk from the block layer in admission order.
// TruncateAround admits a truncated copy's lead first and then siblings
// in geometry order, so the lead leaves first and the geometry pass
// finds it gone.
func (c *AdaptiveIBLP) dropBlock(blk model.Block, remember bool) {
	c.scratch = c.scratch[:0]
	if uint64(blk) < uint64(len(c.lead)) && c.lead[blk] != 0 {
		c.scratch = append(c.scratch, c.lead[blk]-1)
		c.lead[blk] = 0
	}
	c.scratch = model.AppendItemsOf(c.geo, c.scratch, blk)
	for _, x := range c.scratch {
		if c.inBlock.Has(uint64(x)) {
			c.inBlock.Remove(uint64(x))
			c.blockUsed--
			if !c.present(x) {
				c.ch.Evict(x)
			}
		}
	}
	c.blocks.Remove(blk)
	if remember {
		c.ghostBlocks.PushFront(blk)
	}
}

func (c *AdaptiveIBLP) present(it model.Item) bool {
	return c.items.Contains(it) || c.inBlock.Has(uint64(it))
}

// Contains implements cachesim.Cache.
func (c *AdaptiveIBLP) Contains(it model.Item) bool { return c.present(it) }

// Len implements cachesim.Cache.
func (c *AdaptiveIBLP) Len() int {
	n := c.blockUsed
	c.items.Each(func(it model.Item) bool {
		if !c.inBlock.Has(uint64(it)) {
			n++
		}
		return true
	})
	return n
}

// Capacity implements cachesim.Cache.
func (c *AdaptiveIBLP) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *AdaptiveIBLP) Reset() {
	c.items.Clear()
	c.blocks.Clear()
	clear(c.lead)
	c.inBlock.Clear()
	c.blockUsed = 0
	c.ghostItems.Clear()
	c.ghostBlocks.Clear()
	c.targetItem = c.capacity / 2
}
