// Package autotune closes the §5.3 loop under live traffic: dense,
// allocation-free shadow caches — one per candidate IBLP layer split —
// run alongside the live policy off the same request stream, their
// per-window miss counts feed the paper's partition-sizing formulas,
// and a controller (Tuner) issues layer-resize moves to the live cache
// through cachesim.LayerResizable, with hysteresis and a resize-rate
// cap so transient phases cannot thrash the partition.
//
// The shadows simulate eviction decisions only: membership bitsets plus
// lrulist.Dense recency orders, no loaded/evicted accounting, no maps,
// no probe emission — so a full candidate grid costs a small constant
// factor over one live policy access and never allocates in steady
// state (pinned by TestShadowZeroAlloc and the hotalloc analyzer).
package autotune

import (
	"fmt"

	"gccache/internal/bitset"
	"gccache/internal/cachesim"
	"gccache/internal/lrulist"
	"gccache/internal/model"
)

// Shadow is a ghost IBLP cache at one fixed (i, b) split: it tracks
// exactly the membership and recency state the real policy would hold,
// but serves no data and reports only hit/miss counts. Decision
// equivalence with core.IBLP at the same split is pinned by
// TestShadowMatchesIBLP.
type Shadow struct {
	itemSize  int // i
	blockSize int // b
	geo       model.Geometry

	items  *lrulist.Dense[model.Item]
	blocks *lrulist.Dense[model.Block]

	// inBlock is block-layer membership. The item layer needs no
	// separate bitset: hit detection is the recency list's MoveToFront,
	// and without loaded/evicted accounting nothing ever asks "is this
	// item resident somewhere".
	inBlock   bitset.Set
	blockUsed int

	want    []model.Item // scratch: the item set being admitted
	trunc   []model.Item // scratch: truncated admission set
	scratch []model.Item // scratch: victim-block enumeration

	hits         int64
	misses       int64
	windowMisses int64 // misses since the last WindowReset
}

// NewShadow returns a shadow IBLP with item layer i and block layer b
// under g, over item IDs [0, universe) (expanded to whole blocks, see
// model.ItemUniverse). Unlike the real policy, which grows on demand,
// a shadow is sized once: shadows exist to be nearly free, so an
// unbounded universe is a configuration error.
func NewShadow(i, b int, g model.Geometry, universe int) (*Shadow, error) {
	if i < 0 || b < 0 || i+b < 1 {
		return nil, fmt.Errorf("autotune: shadow layer sizes i=%d b=%d invalid", i, b)
	}
	if g == nil {
		return nil, fmt.Errorf("autotune: shadow nil geometry")
	}
	universe = model.ItemUniverse(g, universe)
	blockUniverse := model.BlockUniverse(g, universe)
	if universe <= 0 || universe > cachesim.MaxUniverse ||
		blockUniverse <= 0 || blockUniverse > cachesim.MaxUniverse {
		return nil, fmt.Errorf("autotune: shadow universe %d outside bounded range (0, %d]",
			universe, cachesim.MaxUniverse)
	}
	return &Shadow{
		itemSize:  i,
		blockSize: b,
		geo:       g,
		items:     lrulist.NewDense[model.Item](universe),
		blocks:    lrulist.NewDense[model.Block](blockUniverse),
		inBlock:   bitset.New(universe),
	}, nil
}

// ItemLayerSize returns i, the candidate split this shadow scores.
func (s *Shadow) ItemLayerSize() int { return s.itemSize }

// Hits and Misses return the lifetime counters.
func (s *Shadow) Hits() int64   { return s.hits }
func (s *Shadow) Misses() int64 { return s.misses }

// WindowMisses returns the misses since the last WindowReset.
func (s *Shadow) WindowMisses() int64 { return s.windowMisses }

// WindowReset zeroes the per-window miss counter.
func (s *Shadow) WindowReset() { s.windowMisses = 0 }

// Access simulates one request and reports whether it would have hit.
// It mirrors core.IBLP's access path with the serving concerns
// (loaded/evicted lists, probes) stripped out.
//
//gclint:hotpath
func (s *Shadow) Access(it model.Item) bool {
	if s.items.MoveToFront(it) {
		s.hits++
		return true
	}
	blk := s.geo.BlockOf(it)
	if s.inBlock.Has(uint64(it)) {
		s.blocks.MoveToFront(blk)
		s.admitItemLayer(it)
		s.hits++
		return true
	}
	s.admitItemLayer(it)
	s.admitBlockLayer(blk, it)
	s.misses++
	s.windowMisses++
	return false
}

//gclint:hotpath
func (s *Shadow) admitItemLayer(it model.Item) {
	if s.itemSize == 0 {
		return
	}
	s.items.PushFront(it)
	for s.items.Len() > s.itemSize {
		s.items.PopBack()
	}
}

//gclint:hotpath
func (s *Shadow) admitBlockLayer(blk model.Block, requested model.Item) {
	if s.blockSize == 0 {
		return
	}
	if s.blocks.Contains(blk) {
		// Only possible for a previously truncated copy; replace it.
		s.dropBlock(blk)
	}
	s.want = model.AppendItemsOf(s.geo, s.want[:0], blk)
	want := s.want
	if len(want) > s.blockSize {
		s.trunc = model.TruncateAround(s.trunc, want, requested, s.blockSize)
		want = s.trunc
	}
	for s.blockUsed+len(want) > s.blockSize {
		victim, ok := s.blocks.Back()
		if !ok {
			break
		}
		s.dropBlock(victim)
	}
	if s.blockUsed+len(want) > s.blockSize {
		return // layer cannot hold this block at all
	}
	s.blocks.PushFront(blk)
	s.blockUsed += len(want)
	for _, x := range want {
		s.inBlock.Add(uint64(x))
	}
}

// dropBlock evicts blk. It enumerates into scratch, not want: the
// admission path still holds an alias of want while it evicts victims,
// so the two scratches must stay distinct (exactly as in core.IBLP).
//
//gclint:hotpath
func (s *Shadow) dropBlock(blk model.Block) {
	s.scratch = model.AppendItemsOf(s.geo, s.scratch[:0], blk)
	for _, x := range s.scratch {
		if s.inBlock.Has(uint64(x)) {
			s.inBlock.Remove(uint64(x))
			s.blockUsed--
		}
	}
	s.blocks.Remove(blk)
}

// Reset empties the shadow and zeroes all counters.
func (s *Shadow) Reset() {
	s.items.Clear()
	s.blocks.Clear()
	s.inBlock.Clear()
	s.blockUsed = 0
	s.hits, s.misses, s.windowMisses = 0, 0, 0
}
