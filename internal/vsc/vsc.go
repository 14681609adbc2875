// Package vsc implements the variable-size caching problem in the fault
// model (unit miss cost, arbitrary integral item sizes) and the Theorem 1
// reduction from it to Granularity-Change caching. Variable-size caching
// is NP-complete (Chrobak, Woeginger, Makino, Xu: "Caching is hard — even
// in the fault model"), and the reduction transfers that hardness to
// offline GC caching.
package vsc

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"gccache/internal/model"
	"gccache/internal/trace"
)

// Instance is a variable-size caching instance: items 0..len(Sizes)-1
// with the given sizes, a cache of capacity CacheSize, and a request
// trace of item indices. A miss costs 1 regardless of size (the fault
// model); the requested item must be cached at the end of its access.
type Instance struct {
	Sizes     []int
	CacheSize int
	Trace     []int
}

// Validate reports whether the instance is well formed: positive sizes,
// every trace entry in range, and every item individually cacheable.
func (in Instance) Validate() error {
	if in.CacheSize < 1 {
		return fmt.Errorf("vsc: cache size %d < 1", in.CacheSize)
	}
	if len(in.Sizes) == 0 {
		return fmt.Errorf("vsc: no items")
	}
	for j, s := range in.Sizes {
		if s < 1 {
			return fmt.Errorf("vsc: item %d has size %d < 1", j, s)
		}
		if s > in.CacheSize {
			return fmt.Errorf("vsc: item %d (size %d) exceeds cache size %d", j, s, in.CacheSize)
		}
	}
	for pos, j := range in.Trace {
		if j < 0 || j >= len(in.Sizes) {
			return fmt.Errorf("vsc: trace[%d] = %d out of range", pos, j)
		}
	}
	return nil
}

// Scale multiplies every size and the cache capacity by factor — the
// first step of the Theorem 1 reduction, which normalizes rational sizes
// to integers. Relative cache occupancy, and hence the optimal cost, is
// unchanged.
func (in Instance) Scale(factor int) (Instance, error) {
	if factor < 1 {
		return Instance{}, fmt.Errorf("vsc: scale factor %d < 1", factor)
	}
	out := Instance{
		Sizes:     make([]int, len(in.Sizes)),
		CacheSize: in.CacheSize * factor,
		Trace:     in.Trace,
	}
	for j, s := range in.Sizes {
		out.Sizes[j] = s * factor
	}
	return out, nil
}

// MaxExactItems bounds the exact solver's universe.
const MaxExactItems = 20

// Exact returns the exact optimal miss count via a frontier dynamic
// program over cached-set bitmasks with dominance pruning (offline VSC is
// NP-complete; this is exponential and meant for small instances). The
// solver checks ctx once per trace step (each step enumerates submasks,
// so a step is the natural polling granularity) and returns ctx's error
// when cut short. The exponential frontier makes runaway instances easy
// to hit; ctx is the caller's bound on them.
func Exact(ctx context.Context, in Instance) (int64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	n := len(in.Sizes)
	if n > MaxExactItems {
		return 0, fmt.Errorf("vsc: %d items exceeds exact-solver limit %d", n, MaxExactItems)
	}
	sizeOf := func(mask uint32) int {
		total := 0
		for m := mask; m != 0; m &= m - 1 {
			total += in.Sizes[bits.TrailingZeros32(m)]
		}
		return total
	}
	frontier := map[uint32]int64{0: 0}
	for _, x := range in.Trace {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		xbit := uint32(1) << uint(x)
		next := make(map[uint32]int64, len(frontier))
		relax := func(mask uint32, cost int64) {
			if old, ok := next[mask]; !ok || cost < old {
				next[mask] = cost
			}
		}
		for mask, cost := range frontier {
			if mask&xbit != 0 {
				relax(mask, cost)
				continue
			}
			avail := mask | xbit
			// Enumerate submasks of avail containing x that fit.
			others := avail &^ xbit
			for sub := others; ; sub = (sub - 1) & others {
				cand := sub | xbit
				if sizeOf(cand) <= in.CacheSize {
					relax(cand, cost+1)
				}
				if sub == 0 {
					break
				}
			}
		}
		frontier = pruneDominated(next)
	}
	best := int64(math.MaxInt64)
	for _, c := range frontier {
		if c < best {
			best = c
		}
	}
	if best == math.MaxInt64 {
		best = 0
	}
	return best, nil
}

func pruneDominated(states map[uint32]int64) map[uint32]int64 {
	type st struct {
		mask uint32
		cost int64
	}
	list := make([]st, 0, len(states))
	for m, c := range states {
		list = append(list, st{m, c})
	}
	out := make(map[uint32]int64, len(list))
	for i, a := range list {
		dominated := false
		for j, b := range list {
			if i == j {
				continue
			}
			if b.mask&a.mask == a.mask && b.cost <= a.cost {
				if b.mask != a.mask || j < i {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			out[a.mask] = a.cost
		}
	}
	return out
}

// Reduction is the Theorem 1 transformation of a VSC instance into a GC
// caching instance with the same optimal cost.
type Reduction struct {
	// Geometry holds one block per VSC item; block j's items are the
	// "active set" of size Sizes[j].
	Geometry *model.Table
	// Trace is the generated GC trace: each VSC access to item j becomes
	// Sizes[j] round-robin passes over block j's active set.
	Trace trace.Trace
	// CacheSize is the (scaled) cache size, unchanged from the input.
	CacheSize int
	// ActiveSets[j] lists the GC items standing in for VSC item j.
	ActiveSets [][]model.Item
}

// Reduce builds the Theorem 1 reduction. The input must be integral and
// valid. Each VSC access to item j expands into Sizes[j]² GC requests
// (Sizes[j] round-robin passes over the active set), forcing any optimal
// GC policy to load and evict whole active sets, which makes the GC
// optimum equal the VSC optimum.
func Reduce(in Instance) (*Reduction, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	blocks := make([][]model.Item, len(in.Sizes))
	next := model.Item(0)
	for j, z := range in.Sizes {
		set := make([]model.Item, z)
		for i := range set {
			set[i] = next
			next++
		}
		blocks[j] = set
	}
	geo, err := model.NewTable(blocks)
	if err != nil {
		return nil, fmt.Errorf("vsc: building geometry: %w", err)
	}
	var tr trace.Trace
	for _, j := range in.Trace {
		set := blocks[j]
		for rep := 0; rep < len(set); rep++ {
			tr = append(tr, set...)
		}
	}
	return &Reduction{
		Geometry:   geo,
		Trace:      tr,
		CacheSize:  in.CacheSize,
		ActiveSets: blocks,
	}, nil
}
