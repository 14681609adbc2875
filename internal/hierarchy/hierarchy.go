// Package hierarchy simulates a multi-level memory hierarchy in which
// block granularity changes between levels — the setting that motivates
// the paper (Figure 1: SRAM caches of 64 B lines, DRAM of 2–4 KB rows,
// flash/disk of 4 KB pages). Each level runs its own GC caching policy
// at its own granularity; a miss at level ℓ becomes an access at level
// ℓ+1, and the total traffic is the cost the paper's single-boundary
// model charges at each boundary.
package hierarchy

import (
	"context"
	"fmt"
	"strings"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/trace"
)

// Level is one cache level of the stack.
type Level struct {
	// Name labels the level in reports ("L1", "DRAM cache", …).
	Name string
	// Cache is the level's policy (its geometry — the granularity of the
	// level *below* — is baked into the policy at construction).
	Cache cachesim.Cache
	// MissCost is the cost charged per miss at this level (the latency
	// or energy of reaching the next level). The backing store is
	// implicit below the last level.
	MissCost int64
}

// Stack is an inclusive-traffic hierarchy: every request is served at
// the first level that holds the item; each miss recurses one level
// down. Levels are ordered fastest (closest to the processor) first.
type Stack struct {
	levels    []Level
	recorders []*cachesim.Recorder
}

// New builds a stack. It returns an error if no levels are given or any
// level is missing a cache.
func New(levels ...Level) (*Stack, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("hierarchy: no levels")
	}
	s := &Stack{levels: levels}
	for i, l := range levels {
		if l.Cache == nil {
			return nil, fmt.Errorf("hierarchy: level %d (%s) has no cache", i, l.Name)
		}
		if l.MissCost < 0 {
			return nil, fmt.Errorf("hierarchy: level %d (%s) has negative miss cost", i, l.Name)
		}
		s.recorders = append(s.recorders, cachesim.NewRecorder(l.Cache.Name(), 0))
	}
	return s, nil
}

// Access serves one request, returning the depth at which it hit
// (0-based level index; len(levels) means it went to backing store).
func (s *Stack) Access(it model.Item) int {
	for i, l := range s.levels {
		a := l.Cache.Access(it)
		s.recorders[i].Observe(it, a)
		if a.Hit {
			return i
		}
	}
	return len(s.levels)
}

// cancelStride matches cachesim's polling stride: a multi-level access
// costs a handful of map operations, so checking ctx every 4096 accesses
// bounds cancellation latency at microseconds without touching the
// per-access path.
const cancelStride = 4096

// Run replays a trace through the stack with cooperative cancellation:
// it polls ctx every cancelStride accesses and, when the context ends,
// returns the per-level statistics accumulated so far together with
// ctx's error. A completed replay returns a nil error.
func (s *Stack) Run(ctx context.Context, tr trace.Trace) (Result, error) {
	for i, it := range tr {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return s.Result(), err
			}
		}
		s.Access(it)
	}
	return s.Result(), nil
}

// Reset clears every level.
func (s *Stack) Reset() {
	for i, l := range s.levels {
		l.Cache.Reset()
		s.recorders[i] = cachesim.NewRecorder(l.Cache.Name(), 0)
	}
}

// LevelStats returns the statistics of level i.
func (s *Stack) LevelStats(i int) cachesim.Stats { return s.recorders[i].Stats() }

// Result summarizes a run of the whole stack.
type Result struct {
	// PerLevel holds each level's stats; accesses at level ℓ equal the
	// misses of level ℓ−1.
	PerLevel []cachesim.Stats
	// Names labels PerLevel.
	Names []string
	// MissCosts are the per-level costs used for TotalCost.
	MissCosts []int64
}

// Result snapshots the current statistics.
func (s *Stack) Result() Result {
	r := Result{}
	for i, l := range s.levels {
		r.PerLevel = append(r.PerLevel, s.recorders[i].Stats())
		r.Names = append(r.Names, l.Name)
		r.MissCosts = append(r.MissCosts, l.MissCost)
	}
	return r
}

// TotalCost returns Σ level misses × level cost: the hierarchy-wide
// traffic cost of the run.
func (r Result) TotalCost() int64 {
	total := int64(0)
	for i, st := range r.PerLevel {
		total += st.Misses * r.MissCosts[i]
	}
	return total
}

// AMAT returns the average access cost per request: each request costs
// 1 plus, for each level it misses, that level's MissCost.
func (r Result) AMAT() float64 {
	if len(r.PerLevel) == 0 || r.PerLevel[0].Accesses == 0 {
		return 0
	}
	return 1 + float64(r.TotalCost())/float64(r.PerLevel[0].Accesses)
}

// String renders a compact per-level report.
func (r Result) String() string {
	var b strings.Builder
	for i, st := range r.PerLevel {
		fmt.Fprintf(&b, "%-12s accesses=%-9d hits=%-9d misses=%-9d missRatio=%.4f spatialHits=%d\n",
			r.Names[i], st.Accesses, st.Hits, st.Misses, st.MissRatio(), st.SpatialHits)
	}
	fmt.Fprintf(&b, "total traffic cost=%d  AMAT=%.3f", r.TotalCost(), r.AMAT())
	return b.String()
}
