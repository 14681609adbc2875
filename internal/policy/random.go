package policy

import (
	"fmt"
	"math/rand"

	"gccache/internal/cachesim"
	"gccache/internal/model"
)

// RandomEvict is an Item Cache that evicts a uniformly random resident
// item on a miss. It is the simplest randomized reference point; note
// that the paper's lower bounds (§4) are for deterministic policies, and
// §6 discusses why randomization does not remove the comparison-size
// dependence.
type RandomEvict struct {
	capacity int
	rng      *rand.Rand
	items    []model.Item       // indexable set for O(1) random choice
	index    map[model.Item]int // item -> position in items
	net      cachesim.Net
}

var _ cachesim.Cache = (*RandomEvict)(nil)

// NewRandomEvict returns a random-eviction Item Cache of capacity k with
// the given seed. It panics if k < 1.
func NewRandomEvict(k int, seed int64) *RandomEvict {
	if k < 1 {
		panic(fmt.Sprintf("policy: RandomEvict capacity %d < 1", k))
	}
	return &RandomEvict{
		capacity: k,
		rng:      rand.New(rand.NewSource(seed)),
		index:    make(map[model.Item]int, k),
	}
}

// Name implements cachesim.Cache.
func (c *RandomEvict) Name() string { return "item-random" }

// Access implements cachesim.Cache.
func (c *RandomEvict) Access(it model.Item) cachesim.Access {
	if _, ok := c.index[it]; ok {
		return cachesim.Access{Hit: true}
	}
	c.net.Reset()
	if len(c.items) >= c.capacity {
		pos := c.rng.Intn(len(c.items))
		victim := c.items[pos]
		c.removeAt(pos)
		c.net.Evict(victim)
	}
	c.index[it] = len(c.items)
	c.items = append(c.items, it)
	c.net.Load(it)
	return c.net.Miss()
}

func (c *RandomEvict) removeAt(pos int) {
	last := len(c.items) - 1
	victim := c.items[pos]
	c.items[pos] = c.items[last]
	c.index[c.items[pos]] = pos
	c.items = c.items[:last]
	delete(c.index, victim)
}

// Contains implements cachesim.Cache.
func (c *RandomEvict) Contains(it model.Item) bool {
	_, ok := c.index[it]
	return ok
}

// Len implements cachesim.Cache.
func (c *RandomEvict) Len() int { return len(c.items) }

// Capacity implements cachesim.Cache.
func (c *RandomEvict) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *RandomEvict) Reset() {
	c.items = c.items[:0]
	clear(c.index)
}

// Reseed implements cachesim.Reseeder: it re-seeds the rng in place to
// the state of a fresh NewRandomEvict with the given seed, without
// allocating, so Reseed+Reset on a pooled instance reproduces a newly
// constructed cache exactly.
func (c *RandomEvict) Reseed(seed int64) { c.rng.Seed(seed) }

var _ cachesim.Reseeder = (*RandomEvict)(nil)
