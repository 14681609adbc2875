package opt

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"gccache/internal/model"
	"gccache/internal/trace"
)

// Step describes the optimal cache's action on one access.
type Step struct {
	// Hit reports whether the access was served from cache.
	Hit bool
	// Load lists the items brought in (requested item first). Empty on
	// hits.
	Load []model.Item
	// Evict lists the items removed.
	Evict []model.Item
	// Contents is the cache contents after the step, in item order.
	Contents []model.Item
}

// ExactSchedule is Exact that also reconstructs one schedule: which
// items each miss loads and evicts. Subject to the same MaxExactUniverse
// limit. A completed solve returns the certified optimum and an optimal
// schedule. When ctx ends mid-solve it still returns a complete
// feasible schedule — the DP prefix reconstructed through parents,
// completed greedily with furthest-next-use eviction — whose cost is
// the Anytime incumbent, alongside the proven lower bound and a wrapped
// ErrDeadline.
func ExactSchedule(ctx context.Context, tr trace.Trace, geo model.Geometry, k int) (Anytime, []Step, error) {
	if k < 1 {
		return Anytime{}, nil, fmt.Errorf("opt: cache size %d < 1", k)
	}
	if len(tr) == 0 {
		return Anytime{Exact: true}, nil, nil
	}
	ins, err := newInstance(tr, geo)
	if err != nil {
		return Anytime{}, nil, err
	}

	type entry struct {
		cost   int64
		parent uint32
	}
	frontiers := make([]map[uint32]entry, len(tr)+1)
	frontiers[0] = map[uint32]entry{0: {cost: 0}}
	solved := len(tr)
	for step, it := range tr {
		if ctx.Err() != nil {
			solved = step
			break
		}
		x := ins.index[it]
		xbit := uint32(1) << uint(x)
		next := make(map[uint32]entry)
		// Ties (same mask, same cost, different parents) break toward the
		// smallest parent mask so the reconstructed schedule does not
		// depend on map iteration order: repro output must be stable
		// across runs.
		relax := func(mask uint32, cost int64, parent uint32) {
			if old, ok := next[mask]; !ok || cost < old.cost ||
				(cost == old.cost && parent < old.parent) {
				next[mask] = entry{cost: cost, parent: parent}
			}
		}
		for mask, e := range frontiers[step] {
			if mask&xbit != 0 {
				relax(mask, e.cost, mask)
				continue
			}
			avail := mask | ins.blockMask[x]
			others := avail &^ xbit
			keep := k - 1
			if cnt := bits.OnesCount32(others); cnt <= keep {
				relax(avail, e.cost+1, mask)
				continue
			}
			forEachSubsetOfSize(others, keep, func(sub uint32) {
				relax(sub|xbit, e.cost+1, mask)
			})
		}
		// Dominance pruning must preserve parents; prune on (mask, cost)
		// only.
		costs := make(map[uint32]int64, len(next))
		for m, e := range next {
			costs[m] = e.cost
		}
		pruned := pruneDominated(costs)
		keep := make(map[uint32]entry, len(pruned))
		for m := range pruned {
			keep[m] = next[m]
		}
		frontiers[step+1] = keep
	}

	best := int64(math.MaxInt64)
	var bestMask uint32
	for m, e := range frontiers[solved] {
		if e.cost < best || (e.cost == best && m < bestMask) {
			best, bestMask = e.cost, m
		}
	}
	// Walk parents backwards to recover the mask sequence of the solved
	// prefix.
	masks := make([]uint32, solved+1)
	masks[solved] = bestMask
	for step := solved; step >= 1; step-- {
		masks[step-1] = frontiers[step][masks[step]].parent
	}
	steps := make([]Step, 0, len(tr))
	for i := 0; i < solved; i++ {
		steps = append(steps, ins.maskStep(tr[i], masks[i], masks[i+1]))
	}
	if solved == len(tr) {
		return Anytime{Incumbent: best, Lower: best, Exact: true, Steps: solved}, steps, nil
	}
	inc := best + ins.greedyComplete(tr, solved, bestMask, k, func(st Step) {
		steps = append(steps, st)
	})
	return Anytime{Incumbent: inc, Lower: best, Steps: solved}, steps,
		fmt.Errorf("%w after %d/%d accesses: %v", ErrDeadline, solved, len(tr), ctx.Err())
}

// VerifySchedule replays a schedule against the model and returns its
// cost, erroring on any illegal step (wrong hit flag, load outside the
// requested block, eviction of an absent item, capacity overflow, or a
// missed demand load).
func VerifySchedule(tr trace.Trace, geo model.Geometry, k int, steps []Step) (int64, error) {
	if len(steps) != len(tr) {
		return 0, fmt.Errorf("opt: schedule length %d != trace length %d", len(steps), len(tr))
	}
	contents := make(map[model.Item]struct{}, k)
	cost := int64(0)
	for i, it := range tr {
		st := steps[i]
		_, present := contents[it]
		if st.Hit != present {
			return 0, fmt.Errorf("opt: step %d: hit=%v but present=%v", i, st.Hit, present)
		}
		if st.Hit && len(st.Load) > 0 {
			return 0, fmt.Errorf("opt: step %d: load on a hit", i)
		}
		if !st.Hit {
			cost++
			blk := geo.BlockOf(it)
			self := false
			for _, l := range st.Load {
				if geo.BlockOf(l) != blk {
					return 0, fmt.Errorf("opt: step %d: load %d outside block %d", i, l, blk)
				}
				if _, dup := contents[l]; dup {
					return 0, fmt.Errorf("opt: step %d: load %d already present", i, l)
				}
				if l == it {
					self = true
				}
			}
			if !self {
				return 0, fmt.Errorf("opt: step %d: requested item %d not loaded", i, it)
			}
		}
		for _, e := range st.Evict {
			if _, ok := contents[e]; !ok {
				return 0, fmt.Errorf("opt: step %d: evict %d not present", i, e)
			}
			if e == it {
				return 0, fmt.Errorf("opt: step %d: evicted the requested item", i)
			}
			delete(contents, e)
		}
		for _, l := range st.Load {
			contents[l] = struct{}{}
		}
		if len(contents) > k {
			return 0, fmt.Errorf("opt: step %d: %d items exceed capacity %d", i, len(contents), k)
		}
	}
	return cost, nil
}
