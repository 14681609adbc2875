package autotune

import (
	"testing"

	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/opt"
	"gccache/internal/scenario"
	"gccache/internal/trace"
)

// loadScenarioTrace materializes a corpus scenario at its pinned seed.
func loadScenarioTrace(t testing.TB, path string) trace.Trace {
	t.Helper()
	prog, info, err := scenario.Load(path)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	seed := scenario.ResolveSeed(info, 0, false)
	tr, err := scenario.Trace(prog, seed)
	if err != nil {
		t.Fatalf("materialize %s: %v", path, err)
	}
	return tr
}

// TestAutotuneSmokeDrift is the §5.3 closed-loop acceptance check (the
// `make autotune-smoke` gate): on the drifting-hot-set scenario, a
// tuner starting from the offline-worst candidate split must fire at
// least one live resize and land the run within 10% of the miss ratio
// of the offline-optimal *fixed* split — the regret bound the
// EXPERIMENTS.md table reports across the corpus.
func TestAutotuneSmokeDrift(t *testing.T) {
	const (
		k = 512
		B = 64
	)
	tr := loadScenarioTrace(t, "../../scenarios/drift.gcs")
	g := model.NewFixed(B)

	tn, err := New(Config{K: k, B: B})
	if err != nil {
		t.Fatal(err)
	}
	offBest, offAll := opt.BestIBLPSplit(tr, g, k, tn.Candidates())

	// Start from the offline-worst candidate: the tuner must climb out.
	worst := offAll[0]
	for _, ev := range offAll[1:] {
		if ev.Misses > worst.Misses {
			worst = ev
		}
	}
	if worst.ItemLayer == offBest.ItemLayer {
		t.Fatalf("degenerate sweep: every split scores %d misses", offBest.Misses)
	}
	t.Logf("offline sweep: best i=%d ratio=%.4f, worst i=%d ratio=%.4f",
		offBest.ItemLayer, offBest.MissRatio, worst.ItemLayer, worst.MissRatio)

	live := core.NewIBLP(worst.ItemLayer, k-worst.ItemLayer, g)
	st := Drive(live, tn, tr, 0)
	s := tn.State()
	t.Logf("autotuned: ratio=%.4f resizes=%d final split=%d (formula=%d, working set=%d)",
		st.MissRatio(), s.Resizes, live.ItemLayerTarget(), s.Formula, s.WorkingSet)

	if s.Resizes < 1 {
		t.Fatalf("no resize fired from the offline-worst split i=%d", worst.ItemLayer)
	}
	if limit := offBest.MissRatio * 1.10; st.MissRatio() > limit {
		t.Fatalf("autotuned miss ratio %.4f exceeds 110%% of offline best %.4f (limit %.4f)",
			st.MissRatio(), offBest.MissRatio, limit)
	}
	// The final resting split must be competitive too, not just the
	// time-averaged run: its offline score stays within the same bound.
	finalScore := int64(-1)
	for _, ev := range offAll {
		if ev.ItemLayer == live.ItemLayerTarget() {
			finalScore = ev.Misses
		}
	}
	if finalScore < 0 {
		t.Fatalf("final split %d is not on the candidate grid", live.ItemLayerTarget())
	}
	if limit := float64(offBest.Misses) * 1.10; float64(finalScore) > limit {
		t.Fatalf("final split %d scores %d offline misses, above 110%% of best %d",
			live.ItemLayerTarget(), finalScore, offBest.Misses)
	}
}
