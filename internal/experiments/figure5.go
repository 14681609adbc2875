package experiments

import (
	"fmt"

	"gccache/internal/bounds"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/opt"
	"gccache/internal/render"
	"gccache/internal/workload"
)

// Figure5Stress reproduces the paper's Figure 5 reasoning executably: it
// generates the worst-case access pattern the §5.2 LP analysis is built
// on (adversarial temporal cycling against the item layer, staggered
// block cycling against the block layer), runs IBLP on it, brackets the
// offline optimum, and verifies the measured competitive ratio respects —
// and approaches — the Theorem 7 upper bound. The SpatialShare sweep maps
// the r/s·t trade-off of the linear program.
func Figure5Stress(i, b, B, h, length int) *Report {
	r := &Report{Name: "figure5-stress"}
	geo := model.NewFixed(B)
	t := &render.Table{
		Title: fmt.Sprintf("Figure 5 worst-case pattern vs IBLP(i=%d,b=%d), B=%d, h=%d", i, b, B, h),
		Headers: []string{"spatial-share", "iblp-misses", "opt≤", "opt≥",
			"ratio≥ (vs opt≤)", "thm7-ub"},
	}
	ub := bounds.IBLPUB(float64(i), float64(b), float64(h), float64(B))
	worstObserved := 0.0
	for _, share := range []float64{0, 0.25, 0.5, 0.75, 1} {
		tr, err := workload.LPWorstCase(workload.LPWorstConfig{
			ItemLayer: i, BlockLayer: b, BlockSize: B,
			SpatialShare: share, Length: length,
		})
		if err != nil {
			r.Failf("generate share=%v: %v", share, err)
			continue
		}
		st := replay(core.NewIBLP(i, b, geo), tr)
		est := opt.EstimateOPT(tr, geo, h)
		ratioLow := float64(st.Misses) / float64(est.Upper)
		t.AddRow(share, st.Misses, est.Upper, est.Lower, ratioLow, ub)
		if ratioLow > ub*1.000001 {
			r.Failf("share=%v: measured ratio ≥ %.3f exceeds Theorem 7 bound %.3f — contradiction",
				share, ratioLow, ub)
		}
		if ratioLow > worstObserved {
			worstObserved = ratioLow
		}
		// The pattern must actually hurt IBLP: on the pure components it
		// misses (nearly) every access by construction.
		if (share == 0 || share == 1) && st.MissRatio() < 0.95 {
			r.Failf("share=%v: miss ratio %.3f — the adversarial component is not adversarial",
				share, st.MissRatio())
		}
	}
	r.Tables = append(r.Tables, t)
	if worstObserved < 1.5 {
		r.Failf("no mixture produced a meaningful gap (max ratio %.3f): pattern too weak", worstObserved)
	}
	r.Notef("the Figure 5 pattern drives IBLP to a 100%% miss rate while the offline bracket certifies a large gap, all within the Theorem 7 ceiling of %.2f", ub)
	return r
}
