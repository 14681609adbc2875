package policy

import (
	"fmt"

	"gccache/internal/cachesim"
	"gccache/internal/model"
)

// Clock is the classic second-chance Item Cache: resident items sit on a
// circular buffer with a reference bit; the hand sweeps, clearing bits,
// and evicts the first unreferenced item. It approximates LRU with O(1)
// state updates and is the eviction engine of many real systems — a
// useful Item Cache reference point that, like all Item Caches, is
// subject to the Theorem 2 lower bound.
type Clock struct {
	capacity int
	ring     []model.Item
	refbit   []bool
	index    map[model.Item]int // item -> ring slot
	hand     int
	net      cachesim.Net
}

var _ cachesim.Cache = (*Clock)(nil)

// NewClock returns a CLOCK Item Cache of capacity k. It panics if k < 1.
func NewClock(k int) *Clock {
	if k < 1 {
		panic(fmt.Sprintf("policy: Clock capacity %d < 1", k))
	}
	return &Clock{
		capacity: k,
		ring:     make([]model.Item, 0, k),
		refbit:   make([]bool, 0, k),
		index:    make(map[model.Item]int, k),
	}
}

// Name implements cachesim.Cache.
func (c *Clock) Name() string { return "item-clock" }

// Access implements cachesim.Cache.
func (c *Clock) Access(it model.Item) cachesim.Access {
	if slot, ok := c.index[it]; ok {
		c.refbit[slot] = true
		return cachesim.Access{Hit: true}
	}
	c.net.Reset()
	if len(c.ring) < c.capacity {
		c.index[it] = len(c.ring)
		c.ring = append(c.ring, it)
		c.refbit = append(c.refbit, false)
		c.net.Load(it)
		return c.net.Miss()
	}
	// Sweep: clear reference bits until an unreferenced victim appears.
	for c.refbit[c.hand] {
		c.refbit[c.hand] = false
		c.hand = (c.hand + 1) % c.capacity
	}
	victim := c.ring[c.hand]
	delete(c.index, victim)
	c.net.Evict(victim)
	c.ring[c.hand] = it
	c.refbit[c.hand] = false
	c.index[it] = c.hand
	c.hand = (c.hand + 1) % c.capacity
	c.net.Load(it)
	return c.net.Miss()
}

// Contains implements cachesim.Cache.
func (c *Clock) Contains(it model.Item) bool {
	_, ok := c.index[it]
	return ok
}

// Len implements cachesim.Cache.
func (c *Clock) Len() int { return len(c.ring) }

// Capacity implements cachesim.Cache.
func (c *Clock) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *Clock) Reset() {
	c.ring = c.ring[:0]
	c.refbit = c.refbit[:0]
	clear(c.index)
	c.hand = 0
}
