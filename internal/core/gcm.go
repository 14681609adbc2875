package core

import (
	"fmt"
	"math/bits"

	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
	"gccache/internal/obs"
)

// GCM is Granularity-Change Marking (§6.1), the paper's randomized
// policy. It extends classic marking to the GC model: requested items are
// marked; on a miss the whole accessed block is loaded but only the
// requested item is marked, so spatial-locality items enter the cache
// without displacing marked (temporal-locality) items. Evictions choose a
// uniformly random *unmarked* item; when every resident item is marked,
// all marks are cleared (a new phase) before evicting.
//
// In the common case where 0 < unmarked < B, loading a block therefore
// replaces exactly the unmarked items with (randomly selected) items of
// the accessed block, as the paper describes.
//
// Marks are kept by position: marks[p] is 1 when items[p] is marked and 0
// otherwise, one byte for each of the k slots, so removeAt moves a mark
// with one byte swap and the victim draw tests eight marks with one AND.
// Each item's position sits in a flat array indexed by item ID that
// grows with the largest ID loaded, so steady-state accesses neither
// hash nor allocate.
//
// The victim draw is rejection sampling — Intn(len(items)) until an
// unmarked position comes up — from a generator that reproduces
// math/rand's seeded stream exactly. A sampler over the unmarked items
// alone would need far fewer draws, but it would consume the stream
// differently and so change every seeded result; rejection keeps runs
// bit-for-bit equal to those of the earlier map-and-*rand.Rand
// implementation (TestGCMDecisionStreamGolden).
type GCM struct {
	capacity int
	geo      model.Geometry

	items       []model.Item // indexable resident set
	marks       []uint8      // marks[p] == 1: items[p] is marked; 0 past len(items)
	markedCount int

	// pos[it] is the position of it in items plus one; 0, or an item
	// past the end of pos, is absent.
	pos []int32

	ch    cachesim.Changes
	fixed model.Item   // B under *model.Fixed, else 0
	sibs  []model.Item // scratch: shuffled sibling order
	probe obs.Probe
	rng   randStream
}

var _ cachesim.Cache = (*GCM)(nil)
var _ cachesim.Reseeder = (*GCM)(nil)
var _ cachesim.Instrumented = (*GCM)(nil)

// NewGCM returns a GCM cache of capacity k under g with the given seed.
// It panics if k < 1 or g is nil.
func NewGCM(k int, g model.Geometry, seed int64) *GCM {
	return newGCM(k, g, seed, 0)
}

// NewGCMBounded is NewGCM presized for item IDs [0, universe), so a
// replay inside that range never grows it. It stays for the benchmark
// module; new code calls NewGCM.
func NewGCMBounded(k int, g model.Geometry, seed int64, universe int) *GCM {
	return newGCM(k, g, seed, universe)
}

// newGCM is NewGCM with its position array presized for item IDs
// [0, universe), expanded to whole blocks since sibling loads index it
// too (see model.ItemUniverse).
func newGCM(k int, g model.Geometry, seed int64, universe int) *GCM {
	if k < 1 {
		panic(fmt.Sprintf("core: GCM capacity %d < 1", k))
	}
	if g == nil {
		panic("core: GCM nil geometry")
	}
	c := &GCM{
		capacity: k,
		geo:      g,
		marks:    make([]uint8, k),
		pos:      make([]int32, model.ItemUniverse(g, universe)),
		ch:       cachesim.NewChanges(g),
		fixed:    model.Item(model.FixedSize(g)),
	}
	c.rng.Seed(seed)
	return c
}

// Name implements cachesim.Cache.
func (c *GCM) Name() string { return "gcm" }

// Access implements cachesim.Cache.
//
//gclint:hotpath
func (c *GCM) Access(it model.Item) cachesim.Access {
	if p, ok := c.find(it); ok {
		c.markPos(p, it)
		if c.probe != nil {
			c.probe.Observe(obs.Event{Kind: obs.EvHit, Item: it})
		}
		return cachesim.Access{Hit: true}
	}
	blk := c.geo.BlockOf(it)
	// A random eviction may hit a sibling loaded earlier in this same
	// access, or a resident sibling that is then reloaded; c.ch nets
	// both as they happen.
	c.ch.Begin(blk)

	// Ensure room for the requested item itself.
	if len(c.items) >= c.capacity {
		c.evictOne()
	}
	c.markPos(c.insert(it), it)
	c.ch.Load(it)

	// Load the rest of the block, unmarked, into whatever free space and
	// unmarked slots exist. Siblings are taken in random order so that
	// when slots run short the retained subset is a random selection, as
	// §6.1 specifies.
	for _, sib := range c.shuffledSiblings(it, blk) {
		if c.contains(sib) {
			continue
		}
		if len(c.items) >= c.capacity {
			if c.markedCount >= len(c.items) {
				break // no unmarked victims: stop loading, do NOT reset phase
			}
			c.evictOne()
		}
		c.insert(sib)
		c.ch.Load(sib)
	}
	return c.ch.Miss(c.probe, it)
}

// SetProbe implements cachesim.Instrumented. A nil probe restores the
// unobserved fast path.
func (c *GCM) SetProbe(p obs.Probe) { c.probe = p }

// shuffledSiblings returns the items of blk other than it in a random
// order, in a scratch slice valid until the next call. Under
// model.Fixed the block is a range of IDs, listed skipping it.
//
//gclint:hotpath
func (c *GCM) shuffledSiblings(it model.Item, blk model.Block) []model.Item {
	if B := c.fixed; B != 0 {
		c.sibs = c.sibs[:0]
		for x, end := model.Item(blk)*B, model.Item(blk)*B+B; x < end; x++ {
			if x != it {
				c.sibs = append(c.sibs, x)
			}
		}
	} else {
		c.sibs = model.AppendItemsOf(c.geo, c.sibs[:0], blk)
		for i, x := range c.sibs {
			if x == it {
				c.sibs = append(c.sibs[:i], c.sibs[i+1:]...)
				break
			}
		}
	}
	c.rng.shuffle(c.sibs)
	return c.sibs
}

// evictOne removes one random unmarked item, starting a new phase first
// if everything is marked.
//
//gclint:hotpath
func (c *GCM) evictOne() {
	if c.markedCount >= len(c.items) {
		c.clearMarks() // phase boundary
	}
	p := c.drawUnmarked()
	c.ch.Evict(c.items[p])
	c.removeAt(p)
}

// drawUnmarked returns rng.Intn(len(items)) redrawn until the position
// is unmarked; at least one must be. For a power-of-two length up to
// 2^30, Intn is the output's bits 32 and up under a mask, so the loop
// runs the stream inline with its index in a local and tests eight
// draws at a time: the AND of their eight mark bytes is zero exactly
// when one is unmarked, and the first such draw is the one taken, so
// the stream advances just past it as Intn's loop would. The last
// outputs of a batch, fewer than eight, are tested one at a time.
//
//gclint:hotpath
func (c *GCM) drawUnmarked() int {
	n := len(c.items)
	mark := c.marks[:n]
	if n&(n-1) != 0 || n > 1<<30 {
		for {
			if p := c.rng.Intn(n); mark[p] == 0 {
				return p
			}
		}
	}
	mask := uint64(n - 1)
	_ = mark[mask] // one bounds check here proves every mark[x&mask] below in range
	s := &c.rng
	v := &s.vec
	for i := uint(s.i); ; i = 0 {
		for ; i <= rngLen-8; i += 8 {
			m0, m1, m2, m3 := mark[v[i]>>32&mask], mark[v[i+1]>>32&mask], mark[v[i+2]>>32&mask], mark[v[i+3]>>32&mask]
			m4, m5, m6, m7 := mark[v[i+4]>>32&mask], mark[v[i+5]>>32&mask], mark[v[i+6]>>32&mask], mark[v[i+7]>>32&mask]
			if m0&m1&m2&m3&m4&m5&m6&m7 == 0 {
				i += uint(bits.TrailingZeros8(^(m0 | m1<<1 | m2<<2 | m3<<3 | m4<<4 | m5<<5 | m6<<6 | m7<<7)))
				s.i = int(i) + 1
				return int(v[i] >> 32 & mask)
			}
		}
		for ; i < rngLen; i++ {
			if p := v[i] >> 32 & mask; mark[p] == 0 {
				s.i = int(i) + 1
				return int(p)
			}
		}
		s.refill()
	}
}

// insert appends it to the resident set, unmarked, and returns its
// position. The growth of pos is written inline, not as a call, so
// insert stays within the compiler's inlining budget.
//
//gclint:hotpath
func (c *GCM) insert(it model.Item) int {
	p := len(c.items)
	if uint64(it) >= uint64(len(c.pos)) {
		if it >= lrulist.MaxDenseUniverse {
			panic("core: GCM item at or past lrulist.MaxDenseUniverse")
		}
		c.pos = append(c.pos, make([]int32, int(it)+1-len(c.pos))...) //gclint:allowalloc amortized: append grows capacity geometrically, so IDs below n cost O(log n) grows per cache
	}
	c.pos[it] = int32(p) + 1
	c.items = append(c.items, it)
	return p
}

// removeAt removes the unmarked item at position p, moving the last item
// and its mark into the hole.
//
//gclint:hotpath
func (c *GCM) removeAt(p int) {
	it := c.items[p]
	last := len(c.items) - 1
	moved := c.items[last]
	c.items[p] = moved
	c.items = c.items[:last]
	c.marks[p], c.marks[last] = c.marks[last], c.marks[p]
	c.pos[moved] = int32(p) + 1
	c.pos[it] = 0
}

// find returns the position of it in items, and whether it is resident.
//
//gclint:hotpath
func (c *GCM) find(it model.Item) (int, bool) {
	if uint64(it) >= uint64(len(c.pos)) {
		return -1, false
	}
	p := c.pos[it]
	return int(p) - 1, p != 0
}

//gclint:hotpath
func (c *GCM) contains(it model.Item) bool {
	_, ok := c.find(it)
	return ok
}

// mark marks a resident item (idempotent).
//
//gclint:hotpath
func (c *GCM) mark(it model.Item) {
	p, _ := c.find(it)
	c.markPos(p, it)
}

// markPos marks items[p] == it; the probe sees EvMark only when the mark
// state actually flips.
//
//gclint:hotpath
func (c *GCM) markPos(p int, it model.Item) {
	if c.marks[p] != 0 {
		return
	}
	c.marks[p] = 1
	c.markedCount++
	if c.probe != nil {
		c.probe.Observe(obs.Event{Kind: obs.EvMark, Item: it})
	}
}

// clearMarks unmarks every resident item (k bytes). The probe sees this
// as EvPhaseReset with N = marks dropped.
//
//gclint:hotpath
func (c *GCM) clearMarks() {
	if c.probe != nil {
		c.probe.Observe(obs.Event{Kind: obs.EvPhaseReset, N: int32(c.markedCount)})
	}
	clear(c.marks)
	c.markedCount = 0
}

// Contains implements cachesim.Cache.
func (c *GCM) Contains(it model.Item) bool { return c.contains(it) }

// Len implements cachesim.Cache.
func (c *GCM) Len() int { return len(c.items) }

// Capacity implements cachesim.Cache.
func (c *GCM) Capacity() int { return c.capacity }

// Reset implements cachesim.Cache.
func (c *GCM) Reset() {
	for _, x := range c.items {
		c.pos[x] = 0
	}
	clear(c.marks)
	c.markedCount = 0
	c.items = c.items[:0]
}

// Reseed implements cachesim.Reseeder: it restores the rng to the state
// of a fresh NewGCM with the given seed, so Reseed+Reset on a pooled
// instance reproduces a newly constructed cache exactly.
func (c *GCM) Reseed(seed int64) { c.rng.Seed(seed) }

// MarkedCount reports the number of currently marked items (for tests).
func (c *GCM) MarkedCount() int { return c.markedCount }
