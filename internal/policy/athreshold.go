package policy

import (
	"fmt"

	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
)

// AThreshold is the a-parameter policy family of §4.3: it caches at item
// granularity with LRU eviction, but once a distinct items of a block
// have been accessed (since the block was last fully loaded), the next
// miss on that block loads the *entire* block. Loads only ever happen on
// misses, as Definition 1 requires. Theorem 4 lower-bounds the
// competitive ratio of any deterministic policy in terms of its a.
//
//   - a = 1 loads the whole block on every miss while still evicting items
//     individually — the "load all, evict individually" design §4.4
//     recommends for k ≫ h (see NewBlockLoadItemEvict).
//   - a ≥ B never amplifies loads and behaves exactly like ItemLRU.
type AThreshold struct {
	capacity int
	a        int
	geo      model.Geometry
	order    *lrulist.Dense[model.Item]
	// touched tracks, per block, the distinct items accessed since the
	// block was last fully loaded. Entries are cleared on full load and
	// when a block's last resident item is evicted.
	touched   map[model.Block]map[model.Item]struct{}
	residents map[model.Block]int // resident item count per block
	ch        cachesim.Changes
	sibBuf    []model.Item // scratch: block enumeration
}

var _ cachesim.Cache = (*AThreshold)(nil)

// NewAThreshold returns an a-threshold cache of capacity k under g.
// It panics if k < 1, a < 1, or g is nil.
func NewAThreshold(k, a int, g model.Geometry) *AThreshold {
	if k < 1 {
		panic(fmt.Sprintf("policy: AThreshold capacity %d < 1", k))
	}
	if a < 1 {
		panic(fmt.Sprintf("policy: AThreshold a=%d < 1", a))
	}
	if g == nil {
		panic("policy: AThreshold nil geometry")
	}
	return &AThreshold{
		capacity:  k,
		a:         a,
		geo:       g,
		order:     lrulist.NewDense[model.Item](0),
		touched:   make(map[model.Block]map[model.Item]struct{}),
		residents: make(map[model.Block]int),
		ch:        cachesim.NewChanges(g),
	}
}

// NewBlockLoadItemEvict returns the a=1 member of the family: load the
// whole block on any miss, evict LRU items individually. §4.4 concludes
// this is the right design when the online cache is much larger than the
// comparison point.
func NewBlockLoadItemEvict(k int, g model.Geometry) *AThreshold {
	return NewAThreshold(k, 1, g)
}

// A returns the policy's distinct-access threshold.
func (c *AThreshold) A() int { return c.a }

// Name implements cachesim.Cache.
func (c *AThreshold) Name() string {
	if c.a == 1 {
		return "block-load-item-evict"
	}
	return fmt.Sprintf("a-threshold(a=%d)", c.a)
}

// Access implements cachesim.Cache.
func (c *AThreshold) Access(it model.Item) cachesim.Access {
	blk := c.geo.BlockOf(it)
	set := c.touched[blk]
	if set == nil {
		set = make(map[model.Item]struct{}, c.a)
		c.touched[blk] = set
	}
	set[it] = struct{}{}

	if c.order.MoveToFront(it) {
		// Hit: no load is permitted on a hit (Definition 1), so the
		// threshold, even if reached, waits for the next miss.
		return cachesim.Access{Hit: true}
	}

	// Under capacity pressure a full-block load can insert siblings
	// that the overflow loop evicts in the same step; c.ch nets them.
	c.ch.Begin(blk)
	if len(set) >= c.a {
		// Full-block load: siblings enter at load recency (just below
		// the requested item), displacing older items first.
		delete(c.touched, blk)
		c.sibBuf = model.AppendItemsOf(c.geo, c.sibBuf[:0], blk)
		for _, sib := range c.sibBuf {
			if sib != it {
				c.insert(sib, blk)
			}
		}
	}
	c.insert(it, blk) // requested item is MRU
	c.evictOverflow(it)
	return c.ch.Miss()
}

// insert puts it at the MRU position if absent and records the load.
func (c *AThreshold) insert(it model.Item, blk model.Block) {
	if c.order.PushFront(it) {
		c.residents[blk]++
		c.ch.Load(it)
	} else {
		c.order.MoveToFront(it)
	}
}

func (c *AThreshold) evictOverflow(protect model.Item) {
	for c.order.Len() > c.capacity {
		victim, _ := c.order.Back()
		if victim == protect {
			// Only reachable if the cache holds a single over-large
			// block's worth of nothing but the protected item.
			break
		}
		c.order.Remove(victim)
		blk := c.geo.BlockOf(victim)
		c.residents[blk]--
		if c.residents[blk] == 0 {
			delete(c.residents, blk)
			delete(c.touched, blk)
		}
		c.ch.Evict(victim)
	}
}

// Contains implements cachesim.Cache.
func (c *AThreshold) Contains(it model.Item) bool { return c.order.Contains(it) }

// Len implements cachesim.Cache.
func (c *AThreshold) Len() int { return c.order.Len() }

// Capacity implements cachesim.Cache.
func (c *AThreshold) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *AThreshold) Reset() {
	c.order.Clear()
	clear(c.touched)
	clear(c.residents)
}
