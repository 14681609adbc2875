package policy

import (
	"fmt"
	"math/rand"

	"gccache/internal/cachesim"
	"gccache/internal/model"
)

// Marking is the classic randomized marking algorithm at item granularity
// (it ignores granularity change entirely). Items are marked when
// requested; evictions pick a uniformly random *unmarked* item, and when
// everything is marked a new phase begins by clearing all marks.
//
// §6.1 of the paper notes this policy has competitive ratio ≥ B in the GC
// model regardless of its size — the gap that GCM (internal/core) closes
// by loading, but not marking, block siblings.
type Marking struct {
	capacity int
	rng      *rand.Rand
	items    []model.Item       // indexable set of resident items
	index    map[model.Item]int // item -> position in items
	marked   map[model.Item]struct{}
	net      cachesim.Net
}

var _ cachesim.Cache = (*Marking)(nil)

// NewMarking returns a classic marking Item Cache of capacity k with the
// given seed. It panics if k < 1.
func NewMarking(k int, seed int64) *Marking {
	if k < 1 {
		panic(fmt.Sprintf("policy: Marking capacity %d < 1", k))
	}
	return &Marking{
		capacity: k,
		rng:      rand.New(rand.NewSource(seed)),
		index:    make(map[model.Item]int, k),
		marked:   make(map[model.Item]struct{}, k),
	}
}

// Name implements cachesim.Cache.
func (c *Marking) Name() string { return "item-marking" }

// Access implements cachesim.Cache.
func (c *Marking) Access(it model.Item) cachesim.Access {
	if _, ok := c.index[it]; ok {
		c.marked[it] = struct{}{}
		return cachesim.Access{Hit: true}
	}
	c.net.Reset()
	if len(c.items) >= c.capacity {
		if len(c.marked) == len(c.items) {
			// Phase boundary: unmark everything.
			clear(c.marked)
		}
		victim, ok := c.randomUnmarked()
		if !ok {
			// Unreachable after the phase reset, but stay safe.
			victim = c.items[c.rng.Intn(len(c.items))]
		}
		c.remove(victim)
		c.net.Evict(victim)
	}
	c.insert(it)
	c.marked[it] = struct{}{}
	c.net.Load(it)
	return c.net.Miss()
}

// randomUnmarked samples a uniformly random unmarked resident item by
// rejection; with u unmarked of n items the expected probes are n/u, and
// the phase reset guarantees u ≥ 1 at every call from Access.
func (c *Marking) randomUnmarked() (model.Item, bool) {
	if len(c.marked) >= len(c.items) {
		return 0, false
	}
	for {
		cand := c.items[c.rng.Intn(len(c.items))]
		if _, m := c.marked[cand]; !m {
			return cand, true
		}
	}
}

func (c *Marking) insert(it model.Item) {
	c.index[it] = len(c.items)
	c.items = append(c.items, it)
}

func (c *Marking) remove(it model.Item) {
	pos := c.index[it]
	last := len(c.items) - 1
	c.items[pos] = c.items[last]
	c.index[c.items[pos]] = pos
	c.items = c.items[:last]
	delete(c.index, it)
	delete(c.marked, it)
}

// Contains implements cachesim.Cache.
func (c *Marking) Contains(it model.Item) bool {
	_, ok := c.index[it]
	return ok
}

// Len implements cachesim.Cache.
func (c *Marking) Len() int { return len(c.items) }

// Capacity implements cachesim.Cache.
func (c *Marking) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *Marking) Reset() {
	c.items = c.items[:0]
	clear(c.index)
	clear(c.marked)
}

// Reseed implements cachesim.Reseeder: it re-seeds the rng in place to
// the state of a fresh NewMarking with the given seed, without
// allocating, so Reseed+Reset on a pooled instance reproduces a newly
// constructed cache exactly.
func (c *Marking) Reseed(seed int64) { c.rng.Seed(seed) }

var _ cachesim.Reseeder = (*Marking)(nil)
