package experiments

import (
	"context"
	"fmt"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/opt"
	"gccache/internal/policy"
	"gccache/internal/render"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// shootoutWorkload names a workload used by the policy comparison.
type shootoutWorkload struct {
	name string
	tr   trace.Trace
}

func shootoutWorkloads(k, B int, seed int64) ([]shootoutWorkload, error) {
	runs := func(mean float64) trace.Trace {
		tr, err := workload.BlockRuns(workload.BlockRunsConfig{
			NumBlocks: 512, BlockSize: B, MeanRunLength: mean,
			ZipfS: 1.2, Length: 120000, Seed: seed,
		})
		if err != nil {
			panic(err) // config is static and valid
		}
		return tr
	}
	hot := workload.HotCold{HotItems: 24, BlockSize: B, HotFraction: 0.6,
		ColdUniverse: 8192, Length: 120000, Seed: seed}
	hotTr, err := hot.Generate()
	if err != nil {
		return nil, err
	}
	storage, err := workload.StorageServer{
		BlockSize: B, Streams: 4, RandomUniverse: 16384, MetaBlocks: 64,
		RandomFrac: 0.3, MetaFrac: 0.2, Length: 120000, Seed: seed,
	}.Generate()
	if err != nil {
		return nil, err
	}
	return []shootoutWorkload{
		{"scan (pure spatial)", workload.CyclicScan(8192, 120000)},
		// The stride universe fits an Item Cache of size k but holds more
		// blocks than a Block Cache's k/B frames — Theorem 3's pollution.
		{"stride (no spatial)", workload.Stride(k/2, B, 120000)},
		{"zipf (temporal)", workload.Scatter(workload.Zipf(4096, 1.2, 120000, seed), B, seed)},
		{"blockruns run≈2", runs(2)},
		{"blockruns run≈B/2", runs(float64(B) / 2)},
		{"blockruns run≈B", runs(float64(B))},
		{"hot+cold mix", hotTr},
		{"matrix row-major", workload.MatrixTraversal(128, 512, true, 2)},
		{"matrix col-major", workload.MatrixTraversal(128, 512, false, 2)},
		{"storage server", storage},
	}, nil
}

// PolicyShootout runs experiment E7/E8's workload matrix: every policy on
// every synthetic workload at cache size k, reporting miss ratios and the
// offline bracket, and checking the paper's qualitative claims (Item
// Caches lose on spatial locality, Block Caches lose under pollution,
// IBLP and GCM stay near the best baseline everywhere).
func PolicyShootout(k, B int, seed int64) *Report {
	r := &Report{Name: "policy-shootout"}
	geo := model.NewFixed(B)
	wls, err := shootoutWorkloads(k, B, seed)
	if err != nil {
		r.Failf("workloads: %v", err)
		return r
	}
	// One item-ID bound covering every workload presizes each replay's
	// Recorder. Each pooled cache is built once per worker and reused
	// across all of its grid cells, so it grows to that bound once.
	universe := 0
	for _, wl := range wls {
		if u := wl.tr.Universe(); u > universe {
			universe = u
		}
	}
	universe = model.ItemUniverse(geo, universe)
	builders := []func() cachesim.Cache{
		func() cachesim.Cache { return policy.NewItemLRU(k) },
		func() cachesim.Cache { return policy.NewClock(k) },
		func() cachesim.Cache { return policy.NewFIFO(k) },
		func() cachesim.Cache { return policy.NewBlockLRU(k, geo) },
		func() cachesim.Cache { return policy.NewBlockLoadItemEvict(k, geo) },
		func() cachesim.Cache { return policy.NewAThreshold(k, 2, geo) },
		func() cachesim.Cache { return policy.NewFootprint(k, geo) },
		func() cachesim.Cache { return policy.NewMarking(k, seed) },
		func() cachesim.Cache { return core.NewGCM(k, geo, seed) },
		func() cachesim.Cache { return core.NewIBLPEvenSplit(k, geo) },
		func() cachesim.Cache { return core.NewAdaptiveIBLP(k, geo) },
	}
	names := make([]string, len(builders))
	for i, b := range builders {
		names[i] = b().Name()
	}
	t := &render.Table{
		Title:   fmt.Sprintf("Miss ratios, k=%d, B=%d (lower is better)", k, B),
		Headers: append(append([]string{"workload"}, names...), "opt-lower/acc"),
	}

	type cell struct {
		wi, pi int
		stats  cachesim.Stats
	}
	cells := make([]cell, 0, len(wls)*len(builders))
	for wi := range wls {
		for pi := range builders {
			cells = append(cells, cell{wi: wi, pi: pi})
		}
	}
	// Per-worker pooled caches, lazily built per policy and reset (and
	// reseeded, for randomized policies) before each reuse, so a worker
	// replays all its cells without reconstructing a single policy.
	cachesim.Sweep(context.Background(), len(cells), cachesim.SweepOptions{}, func() []cachesim.Cache {
		return make([]cachesim.Cache, len(builders))
	}, func(ci int, pool []cachesim.Cache) {
		c := cells[ci]
		cache := pool[c.pi]
		if cache == nil {
			cache = builders[c.pi]()
			pool[c.pi] = cache
		} else if rs, ok := cache.(cachesim.Reseeder); ok {
			rs.Reseed(seed)
		}
		cache.Reset()
		cells[ci].stats = replay(cache, wls[c.wi].tr, universe) // distinct slot per cell: no lock needed
	})
	missRatio := make([][]float64, len(wls))
	for i := range missRatio {
		missRatio[i] = make([]float64, len(builders))
	}
	for _, c := range cells {
		missRatio[c.wi][c.pi] = c.stats.MissRatio()
	}
	lowerPerAccess := make([]float64, len(wls))
	cachesim.Sweep(context.Background(), len(wls), cachesim.SweepOptions{}, noWorker, func(wi int, _ struct{}) {
		lb := opt.BlockLowerBound(wls[wi].tr, geo, k)
		lowerPerAccess[wi] = float64(lb) / float64(len(wls[wi].tr))
	})
	for wi, wl := range wls {
		row := []any{wl.name}
		for pi := range builders {
			row = append(row, missRatio[wi][pi])
		}
		row = append(row, lowerPerAccess[wi])
		t.AddRow(row...)
	}
	r.Tables = append(r.Tables, t)

	idx := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		return -1
	}
	lru := idx("item-lru")
	blk := idx("block-lru")
	iblp, adaptive := -1, -1
	for i, n := range names {
		if len(n) >= 4 && n[:4] == "iblp" {
			iblp = i
		}
		if len(n) >= 8 && n[:8] == "adaptive" {
			adaptive = i
		}
	}
	gcm := idx("gcm")
	// Claim 1: on the pure-spatial scan, Item-LRU misses everything while
	// block-loading policies approach 1/B.
	if missRatio[0][lru] < 0.99 {
		r.Failf("scan: item-lru miss ratio %.3f, expected ≈1", missRatio[0][lru])
	}
	if missRatio[0][blk] > 2.5/float64(B) {
		r.Failf("scan: block-lru miss ratio %.3f, expected ≈1/B", missRatio[0][blk])
	}
	// Claim 2: under pollution (stride), block-lru is far worse than
	// item-lru.
	if missRatio[1][blk] < 2*missRatio[1][lru] && missRatio[1][lru] > 0.01 {
		r.Failf("stride: block-lru %.3f not clearly worse than item-lru %.3f",
			missRatio[1][blk], missRatio[1][lru])
	}
	// Claim 3: IBLP and GCM stay within a small factor of the best
	// baseline on every workload (the paper's robustness claim).
	for wi, wl := range wls {
		best := missRatio[wi][lru]
		if missRatio[wi][blk] < best {
			best = missRatio[wi][blk]
		}
		for _, pi := range []int{iblp, gcm, adaptive} {
			if pi < 0 {
				continue
			}
			if missRatio[wi][pi] > 2.5*best+0.02 {
				r.Failf("%s: %s miss ratio %.4f vs best single-granularity %.4f",
					wl.name, names[pi], missRatio[wi][pi], best)
			}
		}
	}
	r.Notef("Item Caches excel at temporal and fail at spatial locality; Block Caches are the opposite; IBLP/GCM are robust across the spectrum (paper §2, §4.4)")
	return r
}

// Ablations runs experiment E8: the §5.1 design-choice ablations.
//
//  1. Layer ordering: IBLP vs the promote-on-item-hit variant on a trace
//     where hot items would reorder the block layer.
//  2. Partitioning: optimal split vs even split vs single-layer extremes
//     on a mixed workload.
//  3. GCM's unmarked sibling loads vs classic marking on a spatial scan.
func Ablations(k, B int, seed int64) *Report {
	r := &Report{Name: "ablations"}
	geo := model.NewFixed(B)

	// (1) §5.1 layer ordering. The adversarial pattern: a few hot items
	// (served by the item layer) interleaved 1:1 with a cyclic cold scan
	// whose block working set exactly fills the block layer. With the
	// §5.1 rule, item-layer hits on the hot items never touch the block
	// layer, so the cold blocks cycle through it hit-free... cycle
	// through it and hit every time. In the promote-all ablation the hot
	// items' blocks are refreshed on every hot hit, pinning them in the
	// block layer; the cold cycle then exceeds the remaining frames and,
	// being cyclic LRU, degenerates to thrashing.
	i, b := k/2, k/2
	hotItems := 4
	coldItems := (b / B) * B // cold block working set == block layer frames
	var orderingTr trace.Trace
	coldPos := 0
	for len(orderingTr) < 150000 {
		hot := model.Item(uint64(len(orderingTr)/2%hotItems) * uint64(B))
		orderingTr = append(orderingTr, hot)
		coldBase := uint64(hotItems+1) * uint64(B)
		orderingTr = append(orderingTr, model.Item(coldBase+uint64(coldPos)))
		coldPos = (coldPos + 1) % coldItems
	}
	ordering := &render.Table{
		Title:   "Ablation 1 — §5.1 layer ordering (hot items + cyclic cold blocks)",
		Headers: []string{"variant", "miss-ratio", "spatial-hits", "temporal-hits"},
	}
	orderingU := model.ItemUniverse(geo, orderingTr.Universe())
	real := replay(core.NewIBLP(i, b, geo), orderingTr, orderingU)
	abl := replay(core.NewIBLPPromoteAll(i, b, geo), orderingTr, 0)
	ordering.AddRow("iblp (item hits do not touch block layer)", real.MissRatio(),
		real.SpatialHits, real.TemporalHits)
	ordering.AddRow("promote-all (violates §5.1)", abl.MissRatio(),
		abl.SpatialHits, abl.TemporalHits)
	if real.MissRatio()*1.5 > abl.MissRatio() {
		r.Failf("ablation 1: proper ordering (%.4f) not clearly better than promote-all (%.4f)",
			real.MissRatio(), abl.MissRatio())
	}
	r.Tables = append(r.Tables, ordering)

	// (1b) §5.1 inclusion policy: neither-inclusive-nor-exclusive IBLP vs
	// the inclusive ablation (item layer contributes nothing) on the same
	// ordering workload, and vs the exclusive ablation whose migrated
	// items punch holes in block copies.
	inclusion := &render.Table{
		Title:   "Ablation 1b — §5.1 inclusion policy (same workload)",
		Headers: []string{"variant", "miss-ratio"},
	}
	inclStats := replay(core.NewIBLPInclusive(i, b, geo), orderingTr, 0)
	exclStats := replay(core.NewIBLPExclusive(i, b, geo), orderingTr, 0)
	inclusion.AddRow("iblp (neither inclusive nor exclusive)", real.MissRatio())
	inclusion.AddRow("inclusive (item layer wasted)", inclStats.MissRatio())
	inclusion.AddRow("exclusive (lifetime holes)", exclStats.MissRatio())
	if real.MissRatio() > inclStats.MissRatio()*1.02 {
		r.Failf("ablation 1b: iblp (%.4f) worse than inclusive ablation (%.4f)",
			real.MissRatio(), inclStats.MissRatio())
	}
	r.Tables = append(r.Tables, inclusion)

	// (2) Partition split sweep on a mixed workload.
	mixTr, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 1024, BlockSize: B, MeanRunLength: float64(B) / 2,
		ZipfS: 1.3, Length: 150000, Seed: seed,
	})
	if err != nil {
		r.Failf("workload: %v", err)
		return r
	}
	split := &render.Table{
		Title:   "Ablation 2 — partition split on mixed temporal+spatial workload",
		Headers: []string{"item-layer", "block-layer", "miss-ratio"},
	}
	type splitRes struct {
		i, b int
		mr   float64
	}
	var results []splitRes
	fracs := []float64{0, 0.25, 0.5, 0.75, 1}
	mixU := model.ItemUniverse(geo, mixTr.Universe())
	resCh := make([]splitRes, len(fracs))
	cachesim.Sweep(context.Background(), len(fracs), cachesim.SweepOptions{}, noWorker, func(fi int, _ struct{}) {
		ii := int(float64(k) * fracs[fi])
		st := replay(core.NewIBLP(ii, k-ii, geo), mixTr, mixU)
		resCh[fi] = splitRes{i: ii, b: k - ii, mr: st.MissRatio()}
	})
	results = resCh
	for _, res := range results {
		split.AddRow(res.i, res.b, res.mr)
	}
	r.Tables = append(r.Tables, split)
	bestMid, worstEnd := 1.0, 0.0
	for _, res := range results {
		if res.i != 0 && res.b != 0 && res.mr < bestMid {
			bestMid = res.mr
		}
		if (res.i == 0 || res.b == 0) && res.mr > worstEnd {
			worstEnd = res.mr
		}
	}
	if bestMid > worstEnd {
		r.Failf("ablation 2: no mixed split beats the worst single-layer extreme (%.4f vs %.4f)", bestMid, worstEnd)
	}

	// (3) GCM vs classic marking on fresh-block scans (§6.1's B× gap),
	// plus the mark-everything ablation on a no-spatial-locality stride
	// (its marked dead siblings shrink the effective cache).
	scan := workload.Sequential(0, 100000)
	scanU := model.ItemUniverse(geo, scan.Universe())
	gcm := replay(core.NewGCM(k, geo, seed), scan, scanU)
	mark := replay(policy.NewMarking(k, seed), scan, 0)
	marking := &render.Table{
		Title:   "Ablation 3 — GCM's unmarked sibling loads vs classic marking (fresh-block scan)",
		Headers: []string{"policy", "misses", "miss-ratio"},
	}
	marking.AddRow("gcm", gcm.Misses, gcm.MissRatio())
	marking.AddRow("item-marking", mark.Misses, mark.MissRatio())
	r.Tables = append(r.Tables, marking)
	// GCM's ideal gap is B× (one miss per fresh block); phase-reset churn
	// costs a small constant factor, so require at least B/4×.
	if gcm.Misses*int64(B)/4 > mark.Misses {
		r.Failf("ablation 3: GCM %d misses vs marking %d — expected ≳B/4× gap", gcm.Misses, mark.Misses)
	}

	stride := workload.Stride(k*3/4, B, 100000)
	strideU := model.ItemUniverse(geo, stride.Universe())
	gcmStride := replay(core.NewGCM(k, geo, seed), stride, strideU)
	markAllStride := replay(core.NewGCMMarkAll(k, geo, seed), stride, 0)
	markAll := &render.Table{
		Title:   "Ablation 3b — marking loaded siblings (§6.1) on a stride with no spatial locality",
		Headers: []string{"policy", "misses", "miss-ratio"},
	}
	markAll.AddRow("gcm (siblings unmarked)", gcmStride.Misses, gcmStride.MissRatio())
	markAll.AddRow("gcm-mark-all", markAllStride.Misses, markAllStride.MissRatio())
	r.Tables = append(r.Tables, markAll)
	if gcmStride.Misses*3/2 > markAllStride.Misses {
		r.Failf("ablation 3b: mark-all %d misses vs gcm %d — expected pollution penalty",
			markAllStride.Misses, gcmStride.Misses)
	}
	r.Notef("every §5.1/§6.1 design choice is load-bearing: reverting any one measurably hurts")
	return r
}
