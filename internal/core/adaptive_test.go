package core

import (
	"math/rand"
	"slices"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/policy"
	"gccache/internal/workload"
)

func TestAdaptiveGrowsItemLayerOnTemporalWorkload(t *testing.T) {
	// One item per block, working set slightly above half the cache: an
	// even split thrashes, a full item layer holds everything. The ghost
	// hits must push the target up.
	B := 8
	geo := model.NewFixed(B)
	k := 128
	c := NewAdaptiveIBLP(k, geo)
	tr := workload.Stride(100, B, 60000) // 100 single-block items
	st := replay(t, c, tr)
	if c.ItemLayerTarget() <= k/2 {
		t.Errorf("target %d did not grow above even split %d", c.ItemLayerTarget(), k/2)
	}
	// Steady state: everything fits in the grown item layer.
	if st.MissRatio() > 0.2 {
		t.Errorf("adaptive miss ratio %.3f on temporal workload", st.MissRatio())
	}
	// An even-split fixed IBLP cannot hold the 100-item working set in a
	// 64-item item layer, and its 8-frame block layer is polluted.
	fixed := replay(t, NewIBLPEvenSplit(k, geo), tr)
	if st.Misses*2 > fixed.Misses {
		t.Errorf("adaptive %d misses vs fixed even split %d — expected a clear win",
			st.Misses, fixed.Misses)
	}
}

func TestAdaptiveHandlesMixedHotSetPlusScans(t *testing.T) {
	// Hot set of 100 single-block items (needs ≈100 item slots — more
	// than the even split's 64) interleaved with one-pass cold scans
	// (needs ≥1 block frame for spatial hits). The adaptive cache grows
	// its item layer to fit the hot set while the capped growth keeps a
	// block frame for the scans; the fixed even split thrashes on the
	// hot set.
	B := 8
	geo := model.NewFixed(B)
	k := 160
	const hotItems = 100
	var tr []model.Item
	coldBase := uint64((hotItems + 1) * B)
	coldPos := 0
	hotPos := 0
	for len(tr) < 120000 {
		// 4 hot accesses per cold access: hot reuse distance ≈ 124
		// distinct items — above the even split's 80, below the grown
		// item layer's ceiling of k−B = 152.
		for j := 0; j < 4; j++ {
			tr = append(tr, model.Item(uint64(hotPos%hotItems)*uint64(B)))
			hotPos++
		}
		tr = append(tr, model.Item(coldBase+uint64(coldPos)))
		coldPos++
	}
	c := NewAdaptiveIBLP(k, geo)
	st := replay(t, c, tr)
	if c.ItemLayerTarget() <= k/2 {
		t.Errorf("target %d did not grow to fit the hot set", c.ItemLayerTarget())
	}
	if c.ItemLayerTarget() > k-B {
		t.Errorf("target %d ate the last block frame", c.ItemLayerTarget())
	}
	fixed := replay(t, NewIBLPEvenSplit(k, geo), tr)
	if st.Misses >= fixed.Misses {
		t.Errorf("adaptive %d misses vs fixed even split %d", st.Misses, fixed.Misses)
	}
}

func TestAdaptiveStaysWithinBudget(t *testing.T) {
	geo := model.NewFixed(8)
	c := NewAdaptiveIBLP(64, geo)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		c.Access(model.Item(rng.Intn(400)))
		if c.Len() > c.Capacity() {
			t.Fatalf("step %d: Len %d > capacity", i, c.Len())
		}
		if tgt := c.ItemLayerTarget(); tgt < 0 || tgt > c.Capacity() {
			t.Fatalf("step %d: target %d out of range", i, tgt)
		}
	}
}

func TestAdaptiveConformsToModel(t *testing.T) {
	geo := model.NewFixed(8)
	v := cachesim.NewValidator(NewAdaptiveIBLP(32, geo), geo)
	tr, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 64, BlockSize: 8, MeanRunLength: 4, Length: 20000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	replay(t, v, tr)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveCompetitiveAcrossSpectrum(t *testing.T) {
	// Robustness: within a modest factor of the better of the two fixed
	// extremes on mixed workloads.
	B := 16
	geo := model.NewFixed(B)
	k := 512
	runs, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 256, BlockSize: B, MeanRunLength: 8, ZipfS: 1.2,
		Length: 120000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptive := replay(t, NewAdaptiveIBLP(k, geo), runs)
	item := replay(t, policy.NewItemLRU(k), runs)
	block := replay(t, policy.NewBlockLRU(k, geo), runs)
	best := item.Misses
	if block.Misses < best {
		best = block.Misses
	}
	if float64(adaptive.Misses) > 2.5*float64(best) {
		t.Errorf("adaptive %d misses vs best fixed %d", adaptive.Misses, best)
	}
}

func TestAdaptiveResetRestoresEvenSplit(t *testing.T) {
	geo := model.NewFixed(8)
	c := NewAdaptiveIBLP(64, geo)
	replay(t, c, workload.Stride(60, 8, 20000))
	if c.ItemLayerTarget() == 32 {
		t.Skip("target did not move; nothing to verify")
	}
	c.Reset()
	if c.ItemLayerTarget() != 32 || c.Len() != 0 {
		t.Error("Reset did not restore the even split")
	}
}

// TestAdaptiveDropsTruncatedCopyInAdmissionOrder: a truncated copy is
// admitted requested item first, then siblings in geometry order, and a
// drop lists its evictions in that order, not in geometry order.
func TestAdaptiveDropsTruncatedCopyInAdmissionOrder(t *testing.T) {
	c := NewAdaptiveIBLP(4, model.NewFixed(8))
	c.SetItemLayerTarget(0) // every item lives in one 4-item block copy
	c.Access(5)             // block 0 copy: 5, 0, 1, 2
	got := c.Access(16).Evicted()
	if want := []model.Item{5, 0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("dropping the truncated copy evicted %v, want %v", got, want)
	}
}

func TestAdaptivePanics(t *testing.T) {
	geo := model.NewFixed(4)
	for _, fn := range []func(){
		func() { NewAdaptiveIBLP(1, geo) },
		func() { NewAdaptiveIBLP(8, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	if NewAdaptiveIBLP(8, geo).Name() == "" {
		t.Error("Name")
	}
}

func TestAdaptiveReAdaptsAcrossEpochs(t *testing.T) {
	// Alternating temporal/spatial epochs: the adaptive target must move
	// up in temporal epochs and recover spatial competence afterwards.
	B := 8
	geo := model.NewFixed(B)
	k := 128
	d := workload.Drifting{BlockSize: B, HotItems: 100, SweepBlocks: k / B,
		EpochLength: 30000, Epochs: 4}
	tr, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	c := NewAdaptiveIBLP(k, geo)
	rec := cachesim.NewRecorder(c.Name(), 0)
	var epochMisses []int64
	prev := int64(0)
	for i, it := range tr {
		rec.Observe(it, c.Access(it))
		if (i+1)%30000 == 0 {
			m := rec.Stats().Misses
			epochMisses = append(epochMisses, m-prev)
			prev = m
		}
	}
	// Second occurrence of each regime should not be worse than 1.5× the
	// first (the ghosts re-learn quickly).
	if float64(epochMisses[2]) > 1.5*float64(epochMisses[0])+1000 {
		t.Errorf("temporal epochs regressed: %v", epochMisses)
	}
	if float64(epochMisses[3]) > 1.5*float64(epochMisses[1])+1000 {
		t.Errorf("spatial epochs regressed: %v", epochMisses)
	}
}
