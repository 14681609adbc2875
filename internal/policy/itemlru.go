// Package policy implements the baseline online replacement policies of
// the GC caching model: the single-granularity Item Cache and Block Cache
// of §2 ("Baseline policies"), classic FIFO/Random/Marking references,
// and the a-threshold family of §4.3 that loads a whole block only after
// a distinct items of it have been touched.
//
// The paper's own contributions (IBLP and GCM) live in internal/core.
package policy

import (
	"fmt"

	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
)

// ItemLRU is the paper's Item Cache baseline: a traditional LRU cache
// that loads only the requested item on a miss and evicts the
// least-recently-used item. It performs well on temporal locality and
// poorly on spatial locality (Theorem 2).
type ItemLRU struct {
	capacity int
	order    *lrulist.Dense[model.Item]
	net      cachesim.Net
}

var _ cachesim.Cache = (*ItemLRU)(nil)

// NewItemLRU returns an Item Cache of capacity k items. Its recency
// order is an lrulist.Dense that grows with the largest item ID seen.
// It panics if k < 1.
func NewItemLRU(k int) *ItemLRU {
	if k < 1 {
		panic(fmt.Sprintf("policy: ItemLRU capacity %d < 1", k))
	}
	return &ItemLRU{capacity: k, order: lrulist.NewDense[model.Item](0)}
}

// Name implements cachesim.Cache.
func (c *ItemLRU) Name() string { return "item-lru" }

// Access implements cachesim.Cache.
//
//gclint:hotpath
func (c *ItemLRU) Access(it model.Item) cachesim.Access {
	if c.order.MoveToFront(it) {
		return cachesim.Access{Hit: true}
	}
	c.net.Reset()
	c.net.Load(it)
	if c.order.Len() < c.capacity {
		c.order.PushFront(it)
	} else {
		c.net.Evict(c.order.ReplaceBack(it))
	}
	return c.net.Miss()
}

// AppendRecency appends the cached items to dst in recency order, most
// recently used first, and returns the extended slice. Cluster handoff
// ships this ordering so the receiving node can rebuild the identical
// LRU state by replaying it back-to-front.
func (c *ItemLRU) AppendRecency(dst []model.Item) []model.Item {
	c.order.Each(func(it model.Item) bool {
		dst = append(dst, it)
		return true
	})
	return dst
}

// Contains implements cachesim.Cache.
func (c *ItemLRU) Contains(it model.Item) bool { return c.order.Contains(it) }

// Len implements cachesim.Cache.
func (c *ItemLRU) Len() int { return c.order.Len() }

// Capacity implements cachesim.Cache.
func (c *ItemLRU) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *ItemLRU) Reset() { c.order.Clear() }
