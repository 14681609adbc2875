package cachesim

import (
	"math/bits"
	"slices"

	"gccache/internal/bitset"
	"gccache/internal/model"
	"gccache/internal/obs"
)

// Changes builds one access's Loaded and Evicted lists as net changes
// (see Access) while the policy makes them. Only items of the requested
// block can both enter and leave the cache within one access, so it
// tracks that block alone, by offset, in two B-bit masks (one word at
// B ≤ 64): out marks the block's items listed in Evicted, back those of
// them loaded again, which Miss unlists. An item evicted, loaded and
// evicted again keeps its first listing; an item loaded and then
// evicted leaves Loaded. Load and Evict inline into the policy: Load
// calls out only once an item of the block is listed in Evicted, Evict
// only for an item in the block's ID range. LoadBits and EvictBits take
// up to 64 consecutive items as a mask, for a policy that moves a Fixed
// block as bits; each lists the items as one run and falls back to one
// Load or Evict per item only when netting is live (LoadBits) or the
// items overlap the open block (EvictBits).
type Changes struct {
	Net // the lists, reused by the next access

	geo        model.Geometry
	fixed      uint64       // B under *model.Fixed, else 0
	base, span uint64       // the open block lies in IDs [base, base+span)
	items      []model.Item // the open block's items by offset, unless Fixed
	out, back  bitset.Set
	gone       int // items listed in Evicted and still absent
	reloaded   int // items listed in Evicted and loaded again
}

// NewChanges returns an empty Changes for a policy under g.
func NewChanges(g model.Geometry) Changes {
	return Changes{geo: g, fixed: uint64(model.FixedSize(g)),
		out: bitset.New(g.BlockSize()), back: bitset.New(g.BlockSize())}
}

// Reset empties both lists for an access that loads nothing, such as a
// hit that evicts: every eviction is then listed as it comes.
//
//gclint:hotpath
func (c *Changes) Reset() {
	c.Net.Reset()
	c.span = 0
}

// Begin empties both lists for a miss that loads from block blk.
//
//gclint:hotpath
func (c *Changes) Begin(blk model.Block) {
	c.Reset()
	if c.gone+c.reloaded != 0 {
		c.out.Clear()
		c.back.Clear()
		c.gone, c.reloaded = 0, 0
	}
	if c.fixed != 0 {
		c.base, c.span = uint64(blk)*c.fixed, c.fixed
		return
	}
	c.items = model.AppendItemsOf(c.geo, c.items[:0], blk)
	lo, hi := uint64(c.items[0]), uint64(c.items[0])
	for _, x := range c.items {
		lo, hi = min(lo, uint64(x)), max(hi, uint64(x))
	}
	c.base, c.span = lo, hi-lo+1
}

// Load records x, an item of the open block, entering the cache.
//
//gclint:hotpath
func (c *Changes) Load(x model.Item) {
	if c.gone != 0 {
		c.load(x)
		return
	}
	c.loaded = append(c.loaded, run{first: x})
}

// Evict records x leaving the cache.
//
//gclint:hotpath
func (c *Changes) Evict(x model.Item) {
	if uint64(x)-c.base < c.span {
		c.evictNear(x)
		return
	}
	c.evicted = append(c.evicted, run{first: x})
}

// LoadBits records the items id+j, for the set bits j of m, entering
// the cache, in ascending ID order: Load for a word of items at once.
// It lists the word as one run unless netting is live.
//
//gclint:hotpath
func (c *Changes) LoadBits(id, m uint64) {
	if c.gone != 0 {
		for ; m != 0; m &= m - 1 {
			c.load(model.Item(id + uint64(bits.TrailingZeros64(m))))
		}
		return
	}
	if m != 0 {
		c.loaded = append(c.loaded, wordRun(id, m))
	}
}

// EvictBits records the items id+j, for the set bits j of m, leaving
// the cache, in ascending ID order: Evict for a word of items at once.
// It lists the word as one run unless the word overlaps the open block.
//
//gclint:hotpath
func (c *Changes) EvictBits(id, m uint64) {
	if m == 0 {
		return
	}
	if id < c.base+c.span && c.base <= id+63-uint64(bits.LeadingZeros64(m)) {
		for ; m != 0; m &= m - 1 {
			c.Evict(model.Item(id + uint64(bits.TrailingZeros64(m))))
		}
		return
	}
	c.evicted = append(c.evicted, wordRun(id, m))
}

// wordRun returns the run of the items id+j for the set bits j of m,
// which is not 0.
//
//gclint:hotpath
func wordRun(id, m uint64) run {
	z := uint64(bits.TrailingZeros64(m))
	return run{model.Item(id + z), m >> z >> 1}
}

// Miss returns the net changes of the miss since Begin.
//
//gclint:hotpath
func (c *Changes) Miss() Access {
	if c.reloaded != 0 {
		n := 0
		for _, r := range c.evicted {
			m := r.mask()
			for b := m; b != 0; b &= b - 1 {
				j := bits.TrailingZeros64(b)
				if off, own := c.offset(r.first + model.Item(j)); own && c.back.Has(off) {
					m &^= 1 << j
				}
			}
			if m != 0 {
				c.evicted[n] = wordRun(uint64(r.first), m)
				n++
			}
		}
		c.evicted = c.evicted[:n]
	}
	return c.Net.Miss()
}

// Hit returns the changes of a block-layer hit, which can evict items
// since Reset (copying the item into a full item layer pushes one out).
// A layer resize reads the items it evicted since Reset from it too.
//
//gclint:hotpath
func (c *Changes) Hit() Access {
	return Access{Hit: true, Served: obs.EvHitBlockLayer, net: &c.Net}
}

// offset returns x's offset in the open block and whether x is in it.
//
//gclint:hotpath
func (c *Changes) offset(x model.Item) (uint64, bool) {
	off := uint64(x) - c.base
	if off >= c.span || c.fixed != 0 {
		return off, off < c.span
	}
	i := slices.Index(c.items, x)
	return uint64(i), i >= 0
}

// load is Load once an item of the open block is listed in Evicted.
//
//gclint:hotpath
func (c *Changes) load(x model.Item) {
	if off, own := c.offset(x); own && c.out.Has(off) && !c.back.Has(off) {
		c.back.Add(off) // evicted earlier in this access: Miss unlists it
		c.gone, c.reloaded = c.gone-1, c.reloaded+1
		return
	}
	c.loaded = append(c.loaded, run{first: x})
}

// evictNear is Evict inside the open block's ID range.
//
//gclint:hotpath
func (c *Changes) evictNear(x model.Item) {
	off, own := c.offset(x)
	if own && c.back.Has(off) { // evicted, loaded, evicted: keep the first listing
		c.back.Remove(off)
		c.gone, c.reloaded = c.gone+1, c.reloaded-1
		return
	}
	if own {
		if c.unload(x) { // loaded earlier: the pair cancels
			return
		}
		c.out.Add(off)
		c.gone++
	}
	c.evicted = append(c.evicted, run{first: x})
}

// unload removes x from Loaded, keeping the order of the rest, and
// reports whether it was listed there. A run of one item is tested by
// its first item alone, so a search through the one-item runs a
// per-item policy lists costs a compare and a test per run.
//
//gclint:hotpath
func (c *Changes) unload(x model.Item) bool {
	for i, r := range c.loaded {
		if r.first != x && (r.rest == 0 || r.rest>>(uint64(x-r.first)-1)&1 == 0) {
			continue
		}
		if m := r.mask() &^ (1 << uint64(x-r.first)); m != 0 {
			c.loaded[i] = wordRun(uint64(r.first), m)
		} else {
			c.loaded = slices.Delete(c.loaded, i, i+1)
		}
		return true
	}
	return false
}
