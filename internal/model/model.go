// Package model defines the basic vocabulary of the Granularity-Change
// (GC) Caching Problem: items, blocks, and the geometry that partitions
// the item universe into blocks of at most B items.
//
// In the GC Caching Problem (Beckmann, Gibbons, McGuffey; SPAA 2022) a
// cache of size k serves requests to unit-size items. Items are grouped
// into disjoint blocks of at most B items, and on a miss the cache may
// load any subset of the missed item's block — so long as it contains the
// item — for a single unit of cost. Items are individually cacheable and
// evictable; only the *load* happens at block granularity.
package model

import (
	"fmt"
	"math/bits"
)

// Item identifies a unit-size cacheable datum. The item universe is the
// non-negative integers; adversaries allocate fresh items without bound.
type Item uint64

// Block identifies a block: a set of at most B items that can be loaded
// together for unit cost.
type Block uint64

// Geometry describes the partition of items into blocks. Implementations
// must be consistent: ItemsOf(BlockOf(it)) contains it, all blocks are
// disjoint, and no block exceeds BlockSize items.
type Geometry interface {
	// BlockOf returns the block containing it.
	BlockOf(it Item) Block
	// ItemsOf returns the items of block b in a stable order. The
	// returned slice is valid only until the next ItemsOf call on the
	// same geometry and must not be mutated; implementations may reuse
	// an internal scratch buffer, so ItemsOf is not safe for concurrent
	// use. Callers that retain the items, nest ItemsOf calls, or share
	// a geometry across goroutines must copy (see AppendItemsOf).
	ItemsOf(b Block) []Item
	// BlockSize returns B, the maximum number of items in any block.
	BlockSize() int
}

// ItemsAppender is implemented by geometries that can write a block's
// item set into a caller-owned buffer. Unlike ItemsOf, AppendItems
// touches no shared scratch state, so it is safe for concurrent use and
// for nested enumeration; it is the form every hot-path policy uses.
type ItemsAppender interface {
	// AppendItems appends the items of block b to dst and returns the
	// extended slice, in the same stable order ItemsOf would produce.
	AppendItems(dst []Item, b Block) []Item
}

// AppendItemsOf appends the items of block b under g to dst, using the
// geometry's AppendItems fast path when available and falling back to
// copying the ItemsOf result otherwise. The result aliases only dst, so
// it is safe to retain.
func AppendItemsOf(g Geometry, dst []Item, b Block) []Item {
	if a, ok := g.(ItemsAppender); ok {
		return a.AppendItems(dst, b)
	}
	return append(dst, g.ItemsOf(b)...)
}

// TruncateAround fills dst with up to n items of all, guaranteed to
// include must (placed first), and returns the filled slice. It is how
// a block-loading policy admits a block wider than its layer — the
// requested item plus the first siblings that fit — so every policy
// truncates identically. dst is a reusable scratch: it grows to n once,
// after which truncation is allocation-free (blocks wider than the
// layer truncate on every admission, so this runs in the replay steady
// state).
func TruncateAround(dst, all []Item, must Item, n int) []Item {
	dst = append(dst[:0], must)
	for _, x := range all {
		if len(dst) >= n {
			break
		}
		if x != must {
			dst = append(dst, x)
		}
	}
	return dst
}

// Fixed is the canonical geometry: item i belongs to block i/B, and block
// b holds items [b*B, (b+1)*B). Every block is full. This is the geometry
// of a memory address space split into aligned lines.
type Fixed struct {
	b       int
	scratch []Item // reused by ItemsOf; valid until its next call
}

// NewFixed returns the aligned geometry with block size b.
// It panics if b < 1.
func NewFixed(b int) *Fixed {
	if b < 1 {
		panic(fmt.Sprintf("model: block size %d < 1", b))
	}
	return &Fixed{b: b}
}

// BlockOf returns it / B.
func (g *Fixed) BlockOf(it Item) Block { return Block(uint64(it) / uint64(g.b)) }

// ItemsOf returns the B items [b*B, (b+1)*B) in an internal scratch
// buffer that is overwritten by the next ItemsOf call on g. Callers must
// not mutate or retain the slice (copy via AppendItems to retain), and
// must not share g across goroutines that call ItemsOf concurrently.
func (g *Fixed) ItemsOf(b Block) []Item {
	g.scratch = g.AppendItems(g.scratch[:0], b)
	return g.scratch
}

// AppendItems appends the B items [b*B, (b+1)*B) to dst. It touches no
// shared state and is safe for concurrent use.
func (g *Fixed) AppendItems(dst []Item, b Block) []Item {
	base := uint64(b) * uint64(g.b)
	for i := 0; i < g.b; i++ {
		dst = append(dst, Item(base+uint64(i)))
	}
	return dst
}

// BlockSize returns B.
func (g *Fixed) BlockSize() int { return g.b }

// IndexInBlock returns the offset of it within its block.
func (g *Fixed) IndexInBlock(it Item) int { return int(uint64(it) % uint64(g.b)) }

// FixedSize returns B when g is a *Fixed geometry and 0 otherwise. A
// nonzero B means block b is exactly the IDs [b·B, (b+1)·B), in
// ascending order, so a policy can treat it as a range of bits.
func FixedSize(g Geometry) int {
	if f, ok := g.(*Fixed); ok {
		return f.b
	}
	return 0
}

// BlockShift finds an item's block under a geometry: by a shift when
// the geometry is a Fixed whose B is a power of two, else through the
// geometry's BlockOf, an interface call that divides. IBLP, BlockLRU
// and GCM find each request's block with one; make inline-check holds
// its BlockOf inline.
type BlockShift struct {
	g     Geometry
	shift uint // log2 B under a Fixed whose B is a power of two, else 64
}

// NewBlockShift returns the BlockShift of g.
func NewBlockShift(g Geometry) BlockShift {
	s := BlockShift{g: g, shift: 64}
	if b := FixedSize(g); b != 0 && b&(b-1) == 0 {
		s.shift = uint(bits.TrailingZeros(uint(b)))
	}
	return s
}

// BlockOf returns the block holding it.
//
//gclint:hotpath
func (s *BlockShift) BlockOf(it Item) Block {
	if s.shift < 64 {
		return Block(uint64(it) >> s.shift)
	}
	return s.g.BlockOf(it)
}

// Table is an explicit geometry built from a list of blocks with possibly
// different (≤ B) sizes. It is used by the variable-size-caching reduction
// (Theorem 1), where only the "active set" of each block is ever touched.
type Table struct {
	blockOf map[Item]Block
	itemsOf map[Block][]Item
	maxSize int
	pseudo  [1]Item // scratch for pseudo-block ItemsOf
}

// NewTable builds a geometry from explicit blocks. Block IDs are assigned
// in slice order. It returns an error if any item appears twice or any
// block is empty.
func NewTable(blocks [][]Item) (*Table, error) {
	t := &Table{
		blockOf: make(map[Item]Block),
		itemsOf: make(map[Block][]Item),
	}
	for i, blk := range blocks {
		if len(blk) == 0 {
			return nil, fmt.Errorf("model: block %d is empty", i)
		}
		id := Block(i)
		for _, it := range blk {
			if _, dup := t.blockOf[it]; dup {
				return nil, fmt.Errorf("model: item %d in multiple blocks", it)
			}
			t.blockOf[it] = id
		}
		items := make([]Item, len(blk))
		copy(items, blk)
		t.itemsOf[id] = items
		if len(blk) > t.maxSize {
			t.maxSize = len(blk)
		}
	}
	return t, nil
}

// MustTable is NewTable that panics on error; for tests and literals.
func MustTable(blocks [][]Item) *Table {
	t, err := NewTable(blocks)
	if err != nil {
		panic(err)
	}
	return t
}

// BlockOf returns the block of it. Items not in any declared block are
// placed in a singleton pseudo-block derived from the item ID, offset past
// the declared ID range, so the geometry remains total.
func (t *Table) BlockOf(it Item) Block {
	if b, ok := t.blockOf[it]; ok {
		return b
	}
	return Block(uint64(len(t.itemsOf)) + uint64(it))
}

// ItemsOf returns the items of b; for pseudo-blocks it returns the single
// implied item. Per the Geometry contract the slice is valid only until
// the next ItemsOf call and must not be mutated. (Declared blocks are in
// fact returned from stable storage, but callers should not rely on a
// guarantee stronger than the interface's.)
func (t *Table) ItemsOf(b Block) []Item {
	if items, ok := t.itemsOf[b]; ok {
		return items
	}
	t.pseudo[0] = Item(uint64(b) - uint64(len(t.itemsOf)))
	return t.pseudo[:]
}

// AppendItems appends the items of b to dst. It touches no shared
// mutable state and is safe for concurrent use.
func (t *Table) AppendItems(dst []Item, b Block) []Item {
	if items, ok := t.itemsOf[b]; ok {
		return append(dst, items...)
	}
	return append(dst, Item(uint64(b)-uint64(len(t.itemsOf))))
}

// BlockSize returns the maximum declared block size (at least 1).
func (t *Table) BlockSize() int {
	if t.maxSize < 1 {
		return 1
	}
	return t.maxSize
}

// NumBlocks returns the number of declared blocks.
func (t *Table) NumBlocks() int { return len(t.itemsOf) }

var (
	_ ItemsAppender = (*Fixed)(nil)
	_ ItemsAppender = (*Table)(nil)
)

// BlockUniverse returns an exclusive upper bound on the block IDs that
// BlockOf can produce for items in [0, universe), or 0 if no useful bound
// is known for the geometry. It is how policies presize their block-ID
// structures from an item-universe bound.
func BlockUniverse(g Geometry, universe int) int {
	if universe <= 0 {
		return 0
	}
	switch t := g.(type) {
	case *Fixed:
		return (universe-1)/t.b + 1
	case *Table:
		// Pseudo-blocks are offset past the declared range by the item ID.
		return t.NumBlocks() + universe
	default:
		return 0
	}
}

// ItemUniverse expands an exclusive item-ID bound (e.g. Trace.Universe)
// to one closed under block membership: every sibling of every item below
// universe is also below the result. Block-loading policies and recorders
// index arrays by *loaded* items, which include siblings the trace
// itself never requests, so arrays presized with this bound rather than
// the raw trace bound never grow. Returns 0 (nothing to presize) for
// unknown geometries.
func ItemUniverse(g Geometry, universe int) int {
	if universe <= 0 {
		return 0
	}
	switch t := g.(type) {
	case *Fixed:
		return (universe-1)/t.b*t.b + t.b // round up to a block boundary
	case *Table:
		// Declared blocks may contain items ≥ universe; items outside the
		// table live in singleton pseudo-blocks and add nothing.
		max := universe
		for _, items := range t.itemsOf {
			for _, it := range items {
				if int(it) >= max {
					max = int(it) + 1
				}
			}
		}
		return max
	default:
		return 0
	}
}

// Config bundles the standing parameters of a GC caching instance.
type Config struct {
	// CacheSize is k, the number of unit-size items the cache can hold.
	CacheSize int
	// Geometry is the item-to-block partition.
	Geometry Geometry
}

// Validate reports whether the configuration is usable. The paper assumes
// k ≥ B (in fact k ≫ B); we only require k ≥ 1 and a geometry, leaving
// k ≥ B checks to policies that need them.
func (c Config) Validate() error {
	if c.CacheSize < 1 {
		return fmt.Errorf("model: cache size %d < 1", c.CacheSize)
	}
	if c.Geometry == nil {
		return fmt.Errorf("model: nil geometry")
	}
	return nil
}
