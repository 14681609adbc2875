package policy

import (
	"fmt"

	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
)

// FIFO is a first-in-first-out Item Cache: hits do not refresh an item's
// position, so eviction order is pure insertion order. Like every Item
// Cache it is subject to the Theorem 2 lower bound.
type FIFO struct {
	capacity int
	order    *lrulist.Dense[model.Item]
	net      cachesim.Net
}

var _ cachesim.Cache = (*FIFO)(nil)

// NewFIFO returns a FIFO Item Cache of capacity k items. It panics if
// k < 1.
func NewFIFO(k int) *FIFO {
	if k < 1 {
		panic(fmt.Sprintf("policy: FIFO capacity %d < 1", k))
	}
	return &FIFO{capacity: k, order: lrulist.NewDense[model.Item](0)}
}

// Name implements cachesim.Cache.
func (c *FIFO) Name() string { return "item-fifo" }

// Access implements cachesim.Cache.
func (c *FIFO) Access(it model.Item) cachesim.Access {
	if c.order.Contains(it) {
		return cachesim.Access{Hit: true} // no promotion: FIFO
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

// Contains implements cachesim.Cache.
func (c *FIFO) Contains(it model.Item) bool { return c.order.Contains(it) }

// Len implements cachesim.Cache.
func (c *FIFO) Len() int { return c.order.Len() }

// Capacity implements cachesim.Cache.
func (c *FIFO) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *FIFO) Reset() { c.order.Clear() }
