package opt

import (
	"context"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/trace"
)

// SplitEval is one fixed IBLP split's offline score on a trace.
type SplitEval struct {
	ItemLayer int
	Misses    int64
	MissRatio float64
}

// BestIBLPSplit replays tr cold through a fixed-split IBLP of total
// size k for every candidate item-layer size and returns the best
// (fewest misses; ties go to the smaller item layer) plus every
// evaluation in candidate order. It is the offline answer the autotune
// controller chases: the controller only ever sees a window at a time,
// so its regret is measured against this full-trace sweep. Candidates
// are clamped to [0, k]; duplicates are evaluated once and reported
// once.
func BestIBLPSplit(tr trace.Trace, geo model.Geometry, k int, candidates []int) (SplitEval, []SplitEval) {
	universe := tr.Universe()
	seen := make(map[int]bool)
	var all []SplitEval
	best := SplitEval{ItemLayer: -1}
	for _, i := range candidates {
		if i < 0 {
			i = 0
		}
		if i > k {
			i = k
		}
		if seen[i] {
			continue
		}
		seen[i] = true
		// A slice source with no universe bound never fails.
		st, _ := cachesim.Replay(context.Background(), core.NewIBLPBounded(i, k-i, geo, universe),
			trace.NewSliceSource(tr), cachesim.ReplayOptions{})
		ev := SplitEval{ItemLayer: i, Misses: st.Misses, MissRatio: st.MissRatio()}
		all = append(all, ev)
		if best.ItemLayer < 0 || ev.Misses < best.Misses ||
			(ev.Misses == best.Misses && ev.ItemLayer < best.ItemLayer) {
			best = ev
		}
	}
	return best, all
}
