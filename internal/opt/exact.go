package opt

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"gccache/internal/model"
	"gccache/internal/trace"
)

// MaxExactUniverse bounds the distinct-item count the exact solver
// accepts. Offline GC caching is NP-complete (Theorem 1); the solver is
// a frontier dynamic program over cache-content bitmasks and is meant for
// certifying heuristics and the reduction on small instances.
const MaxExactUniverse = 20

// Exact solves the GC-caching optimum (minimum miss count) for tr under
// geo with cache size k, as an anytime, resumable solver.
//
// States are bitmasks of cached items over the trace's distinct-item
// universe. On a miss to x the cache may load any L ⊆ block(x)\cache with
// x ∈ L and evict anything, so the reachable next states are exactly the
// S ⊆ (cache ∪ block(x)) with x ∈ S and |S| ≤ k. Because extra cached
// items never hurt (evictions are free and capacity binds only on load),
// only maximal states matter; the frontier is additionally pruned by
// dominance (drop S if a superset with no larger cost survives).
//
// The solver polls ctx once per trace position. A completed solve
// returns the certified optimum (Exact set, Lower == Incumbent, Steps ==
// len(tr)) and a nil error. When ctx ends first it returns the best
// incumbent (DP prefix completed greedily), the proven lower bound, and
// an error wrapping ErrDeadline. Either way it returns the checkpoint
// reached: passing it back as from continues the proof where it
// stopped, visiting exactly the states an uninterrupted solve would. A
// nil from is a fresh solve.
func Exact(ctx context.Context, tr trace.Trace, geo model.Geometry, k int, from *Checkpoint) (Anytime, *Checkpoint, error) {
	if k < 1 {
		return Anytime{}, nil, fmt.Errorf("opt: cache size %d < 1", k)
	}
	if len(tr) == 0 {
		return Anytime{Exact: true}, &Checkpoint{Frontier: map[uint32]int64{0: 0}}, nil
	}
	ins, err := newInstance(tr, geo)
	if err != nil {
		return Anytime{}, nil, err
	}
	start := 0
	frontier := map[uint32]int64{0: 0}
	if from != nil {
		if from.Step < 0 || from.Step > len(tr) || len(from.Frontier) == 0 {
			return Anytime{}, nil, fmt.Errorf("opt: checkpoint step %d invalid for a %d-access trace", from.Step, len(tr))
		}
		start = from.Step
		frontier = make(map[uint32]int64, len(from.Frontier))
		for m, c := range from.Frontier {
			frontier[m] = c
		}
	}
	for step := start; step < len(tr); step++ {
		if ctx.Err() != nil {
			mask, lower := bestState(frontier)
			inc := lower + ins.greedyComplete(tr, step, mask, k, nil)
			return Anytime{Incumbent: inc, Lower: lower, Steps: step},
				&Checkpoint{Step: step, Frontier: frontier},
				fmt.Errorf("%w after %d/%d accesses: %v", ErrDeadline, step, len(tr), ctx.Err())
		}
		frontier = exactStep(ins, frontier, tr[step], k)
		if len(frontier) == 0 {
			return Anytime{}, nil, fmt.Errorf("opt: state space exhausted (internal error)")
		}
	}
	_, best := bestState(frontier)
	return Anytime{Incumbent: best, Lower: best, Exact: true, Steps: len(tr)},
		&Checkpoint{Step: len(tr), Frontier: frontier}, nil
}

// forEachSubsetOfSize calls fn for every subset of set with exactly size
// bits (size ≤ popcount(set); size ≥ 0).
func forEachSubsetOfSize(set uint32, size int, fn func(uint32)) {
	// Collect bit positions.
	var positions []uint
	for s := set; s != 0; s &= s - 1 {
		positions = append(positions, uint(bits.TrailingZeros32(s)))
	}
	if size < 0 {
		return
	}
	if size == 0 {
		fn(0)
		return
	}
	var rec func(start int, remaining int, acc uint32)
	rec = func(start, remaining int, acc uint32) {
		if remaining == 0 {
			fn(acc)
			return
		}
		for idx := start; idx <= len(positions)-remaining; idx++ {
			rec(idx+1, remaining-1, acc|1<<positions[idx])
		}
	}
	rec(0, size, 0)
}

// pruneDominated removes states dominated by a superset with cost no
// larger. Quadratic in frontier size; frontiers stay small thanks to the
// maximal-state generation.
func pruneDominated(states map[uint32]int64) map[uint32]int64 {
	type st struct {
		mask uint32
		cost int64
	}
	// Materialize in sorted mask order: the equal-cost superset tie-break
	// below compares list positions, so list order must not depend on map
	// iteration order for the surviving set to be deterministic.
	masks := make([]uint32, 0, len(states))
	for m := range states {
		masks = append(masks, m) //gclint:orderok collected set is sorted below before use
	}
	slices.Sort(masks)
	list := make([]st, 0, len(masks))
	for _, m := range masks {
		list = append(list, st{m, states[m]})
	}
	out := make(map[uint32]int64, len(list))
	for i, a := range list {
		dominated := false
		for j, b := range list {
			if i == j {
				continue
			}
			if b.mask&a.mask == a.mask && b.cost <= a.cost {
				// b is a superset with cost ≤ a's. Strict domination, or
				// tie-break equal masks by index to keep exactly one.
				if b.mask != a.mask || b.cost != a.cost || j < i {
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
