package experiments

import (
	"context"
	"fmt"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/render"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// AdaptiveStudy runs experiment E10: the ghost-list AdaptiveIBLP against
// fixed splits across workloads whose ideal split differs — the
// repository's constructive response to §5.3's "unknown optimal size"
// problem (Figure 6). The adaptive policy must track the best fixed
// split within a modest factor on *every* workload, while each fixed
// split loses badly somewhere.
func AdaptiveStudy(k, B int, seed int64) *Report {
	r := &Report{Name: "adaptive-study"}
	geo := model.NewFixed(B)

	runs := func(mean float64, blocks int) trace.Trace {
		tr, err := workload.BlockRuns(workload.BlockRunsConfig{
			NumBlocks: blocks, BlockSize: B, MeanRunLength: mean,
			ZipfS: 1.2, Length: 150000, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		return tr
	}
	wls := []shootoutWorkload{
		// Wants a big item layer: single-block items, working set ≈ 0.8k.
		{"temporal (stride 0.8k)", workload.Stride(k*4/5, B, 150000)},
		// Wants block frames: full-block sweeps.
		{"spatial (runs ≈ B)", runs(float64(B), 512)},
		// Mixed.
		{"mixed (runs ≈ B/4, zipf)", runs(float64(B)/4, 512)},
		{"scan", workload.CyclicScan(8*k, 150000)},
	}
	splits := []struct {
		name  string
		build func() cachesim.Cache
	}{
		{"item-only", func() cachesim.Cache { return core.NewIBLP(k, 0, geo) }},
		{"even", func() cachesim.Cache { return core.NewIBLPEvenSplit(k, geo) }},
		{"block-heavy", func() cachesim.Cache { return core.NewIBLP(k/8, k-k/8, geo) }},
		{"adaptive", func() cachesim.Cache { return core.NewAdaptiveIBLP(k, geo) }},
	}

	t := &render.Table{
		Title:   fmt.Sprintf("Adaptive vs fixed splits, miss ratios (k=%d, B=%d)", k, B),
		Headers: []string{"workload", "item-only", "even", "block-heavy", "adaptive", "adaptive/best-fixed"},
	}
	type cellKey struct{ wi, si int }
	jobs := make([]cellKey, 0, len(wls)*len(splits))
	for wi := range wls {
		for si := range splits {
			jobs = append(jobs, cellKey{wi, si})
		}
	}
	// Per-index result slots (no shared map, no lock): job j writes only
	// results[j], which is the sweep engine's sanctioned sharing shape.
	results := make([]float64, len(jobs))
	cell := func(wi, si int) float64 { return results[wi*len(splits)+si] }
	// Per-worker pooled caches, one per split, built lazily and reset
	// before every replay across the worker's cells.
	cachesim.Sweep(context.Background(), len(jobs), cachesim.SweepOptions{}, func() []cachesim.Cache {
		return make([]cachesim.Cache, len(splits))
	}, func(j int, pool []cachesim.Cache) {
		key := jobs[j]
		cache := pool[key.si]
		if cache == nil {
			cache = splits[key.si].build()
			pool[key.si] = cache
		}
		cache.Reset()
		results[j] = replay(cache, wls[key.wi].tr).MissRatio()
	})
	for wi, wl := range wls {
		bestFixed := 1.0
		for si := 0; si < 3; si++ {
			if v := cell(wi, si); v < bestFixed {
				bestFixed = v
			}
		}
		adaptiveMR := cell(wi, 3)
		rel := 0.0
		if bestFixed > 0 {
			rel = adaptiveMR / bestFixed
		}
		t.AddRow(wl.name,
			cell(wi, 0), cell(wi, 1), cell(wi, 2), adaptiveMR, rel)
		if adaptiveMR > 2.0*bestFixed+0.02 {
			r.Failf("%s: adaptive %.4f vs best fixed %.4f", wl.name, adaptiveMR, bestFixed)
		}
	}
	r.Tables = append(r.Tables, t)

	// Each fixed split must be beaten badly somewhere (otherwise the
	// study proves nothing about the need for adaptation).
	for si := 0; si < 3; si++ {
		worstRel := 0.0
		for wi := range wls {
			bestFixed := 1.0
			for sj := 0; sj < 3; sj++ {
				if v := cell(wi, sj); v < bestFixed {
					bestFixed = v
				}
			}
			if bestFixed > 0 {
				if rel := cell(wi, si) / bestFixed; rel > worstRel {
					worstRel = rel
				}
			}
		}
		if worstRel < 2 {
			r.Failf("fixed split %q never loses badly — workloads not differentiating", splits[si].name)
		}
	}
	r.Notef("no fixed split is safe across workloads (Figure 6's dilemma); the ghost-list adaptive split tracks the best fixed choice everywhere")
	return r
}
