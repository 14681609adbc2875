package experiments

import (
	"context"
	"fmt"
	"sync"

	"gccache/internal/adversary"
	"gccache/internal/bounds"
	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/policy"
	"gccache/internal/render"
)

// Figure3Empirical runs experiment E7: a laptop-scale overlay of
// Figure 3. For a sweep of optimal sizes h at fixed (k, B), it measures
// the adversarial competitive-ratio lower bound realized by actual policy
// implementations — Item-LRU under the Theorem 2 construction, Block-LRU
// under Theorem 3 where it applies, and IBLP under the Theorem 2
// construction (which it escapes) — next to the analytic curves.
func Figure3Empirical(k, B, phases int) *Report {
	r := &Report{Name: "figure3-empirical"}
	geo := model.NewFixed(B)
	t := &render.Table{
		Title: fmt.Sprintf("Figure 3 empirical overlay (k=%d, B=%d, %d phases)", k, B, phases),
		Headers: []string{"h", "item-lru measured", "thm2 bound", "iblp measured (same trace)",
			"iblp-ub(thm7)", "block-lru measured", "thm3 bound"},
	}
	var hs []int
	for h := B + 1; h <= k/2; h *= 2 {
		hs = append(hs, h)
	}
	type rowData struct {
		h                               int
		lruRatio, iblpRatio, blockRatio float64
		thm2, thm7, thm3                float64
		lruErr, iblpErr, blockErr       error
	}
	rows := make([]rowData, len(hs))
	var mu sync.Mutex
	cachesim.Sweep(context.Background(), len(hs), cachesim.SweepOptions{}, noWorker, func(i int, _ struct{}) {
		h := hs[i]
		rd := rowData{h: h}
		cfg := adversary.Config{OptSize: h, Phases: phases}
		if res, err := adversary.ItemCache(policy.NewItemLRU(k), geo, cfg); err == nil {
			rd.lruRatio, rd.thm2 = res.Ratio(), res.BoundClaim
		} else {
			rd.lruErr = err
		}
		if res, err := adversary.ItemCache(core.NewIBLPEvenSplit(k, geo), geo, cfg); err == nil {
			rd.iblpRatio = res.Ratio()
		} else {
			rd.iblpErr = err
		}
		rd.thm7 = bounds.IBLPUB(float64(k/2), float64(k-k/2), float64(h), float64(B))
		if k/B >= h {
			if res, err := adversary.BlockCache(policy.NewBlockLRU(k, geo), geo, cfg); err == nil {
				rd.blockRatio, rd.thm3 = res.Ratio(), res.BoundClaim
			} else {
				rd.blockErr = err
			}
		}
		mu.Lock()
		rows[i] = rd
		mu.Unlock()
	})
	for _, rd := range rows {
		blockCell, thm3Cell := "-", "-"
		if rd.thm3 != 0 {
			blockCell = render.FormatFloat(rd.blockRatio)
			thm3Cell = render.FormatFloat(rd.thm3)
		}
		t.AddRow(rd.h, rd.lruRatio, rd.thm2, rd.iblpRatio, rd.thm7, blockCell, thm3Cell)
		for _, err := range []error{rd.lruErr, rd.iblpErr, rd.blockErr} {
			if err != nil {
				r.Failf("h=%d: %v", rd.h, err)
			}
		}
		if rd.thm2 > 0 && rd.lruRatio < 0.85*rd.thm2 {
			r.Failf("h=%d: item-lru measured %.3f below Theorem 2 claim %.3f", rd.h, rd.lruRatio, rd.thm2)
		}
		if rd.thm7 > 0 && rd.iblpRatio > rd.thm7*1.000001 {
			r.Failf("h=%d: IBLP measured %.3f exceeds its Theorem 7 upper bound %.3f — contradiction",
				rd.h, rd.iblpRatio, rd.thm7)
		}
		if rd.thm3 > 0 && rd.blockRatio < 0.85*rd.thm3 {
			r.Failf("h=%d: block-lru measured %.3f below Theorem 3 claim %.3f", rd.h, rd.blockRatio, rd.thm3)
		}
	}
	r.Tables = append(r.Tables, t)
	r.Notef("measured adversarial ratios straddle the analytic curves: baselines hit their lower bounds, IBLP stays under its upper bound")
	return r
}
