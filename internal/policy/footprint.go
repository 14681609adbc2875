package policy

import (
	"fmt"

	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
)

// Footprint is the history-based predicted-subset policy of the DRAM
// caches the paper cites (Footprint/Unison cache: Jevdjic et al.): on a
// miss it loads the requested item plus the block offsets that were
// *used during the block's previous residency* — a learned point between
// the Item Cache (load one) and Block Cache (load all) extremes whose
// trade-off Theorem 4 formalizes. Eviction is item-granularity LRU; when
// a block's last resident item leaves, the offsets it was touched at are
// recorded as its next footprint.
type Footprint struct {
	capacity int
	geo      model.Geometry
	order    *lrulist.Dense[model.Item]

	// footprint maps a block to the offset bitmap observed during its
	// last completed residency (nil bitmap = never seen before).
	footprint map[model.Block]uint64
	// touched accumulates the offsets accessed during the current
	// residency of each (partially) resident block.
	touched map[model.Block]uint64
	// residents counts resident items per block so residency end is
	// detectable.
	residents map[model.Block]int

	ch    cachesim.Changes
	items []model.Item // scratch: block enumeration
}

var _ cachesim.Cache = (*Footprint)(nil)

// NewFootprint returns a footprint-predicting cache of capacity k under
// g. Block size must be ≤ 64 (offset bitmaps are one word, matching the
// row/line ratios of the hardware designs). It panics on bad arguments.
func NewFootprint(k int, g model.Geometry) *Footprint {
	if k < 1 {
		panic(fmt.Sprintf("policy: Footprint capacity %d < 1", k))
	}
	if g == nil {
		panic("policy: Footprint nil geometry")
	}
	if g.BlockSize() > 64 {
		panic(fmt.Sprintf("policy: Footprint block size %d > 64", g.BlockSize()))
	}
	return &Footprint{
		capacity:  k,
		geo:       g,
		order:     lrulist.NewDense[model.Item](0),
		footprint: make(map[model.Block]uint64),
		touched:   make(map[model.Block]uint64),
		residents: make(map[model.Block]int),
		ch:        cachesim.NewChanges(g),
	}
}

// Name implements cachesim.Cache.
func (c *Footprint) Name() string { return "footprint" }

// offsetOf returns it's offset bit within its block, refreshing the
// block-enumeration scratch.
func (c *Footprint) offsetOf(it model.Item, blk model.Block) uint64 {
	c.items = model.AppendItemsOf(c.geo, c.items[:0], blk)
	for i, x := range c.items {
		if x == it {
			return 1 << uint(i)
		}
	}
	return 1 // defensive: treat as offset 0
}

// Access implements cachesim.Cache.
func (c *Footprint) Access(it model.Item) cachesim.Access {
	blk := c.geo.BlockOf(it)
	if c.order.MoveToFront(it) {
		c.touched[blk] |= c.offsetOf(it, blk)
		return cachesim.Access{Hit: true}
	}
	// The overflow loop may evict predicted siblings loaded in this same
	// step; c.ch nets them.
	c.ch.Begin(blk)

	// Predicted subset: last residency's footprint, always including the
	// requested item. Unknown blocks load conservatively: just the item
	// (first-touch training, as the hardware designs do).
	predicted := c.footprint[blk] | c.offsetOf(it, blk)
	items := c.items // offsetOf just refreshed the scratch for blk
	for i, x := range items {
		if predicted&(1<<uint(i)) == 0 {
			continue
		}
		if x == it {
			continue // inserted last, at MRU
		}
		if c.order.PushFront(x) {
			c.residents[blk]++
			c.ch.Load(x)
		}
	}
	if c.order.PushFront(it) {
		c.residents[blk]++
		c.ch.Load(it)
	}
	c.touched[blk] |= c.offsetOf(it, blk)
	c.evictOverflow(it)
	return c.ch.Miss()
}

func (c *Footprint) evictOverflow(protect model.Item) {
	for c.order.Len() > c.capacity {
		victim, _ := c.order.Back()
		if victim == protect {
			break
		}
		c.order.Remove(victim)
		blk := c.geo.BlockOf(victim)
		c.residents[blk]--
		c.ch.Evict(victim)
		if c.residents[blk] == 0 {
			// Residency over: commit the observed footprint for next time.
			delete(c.residents, blk)
			c.footprint[blk] = c.touched[blk]
			delete(c.touched, blk)
		}
	}
}

// PredictedFootprint exposes the learned offset bitmap for tests.
func (c *Footprint) PredictedFootprint(blk model.Block) uint64 { return c.footprint[blk] }

// Contains implements cachesim.Cache.
func (c *Footprint) Contains(it model.Item) bool { return c.order.Contains(it) }

// Len implements cachesim.Cache.
func (c *Footprint) Len() int { return c.order.Len() }

// Capacity implements cachesim.Cache.
func (c *Footprint) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *Footprint) Reset() {
	c.order.Clear()
	clear(c.footprint)
	clear(c.touched)
	clear(c.residents)
}
