package locality

import (
	"context"
	"math/rand"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/policy"
	"gccache/internal/trace"
)

func TestStackDistancesKnown(t *testing.T) {
	// Trace: a b c a b b.
	keys := []uint64{1, 2, 3, 1, 2, 2}
	want := []int{-1, -1, -1, 2, 2, 0}
	got := StackDistances(keys)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestMissRatioCurveMatchesSimulation(t *testing.T) {
	// The gold standard: the one-pass curve equals a direct LRU
	// simulation at every size.
	rng := rand.New(rand.NewSource(21))
	tr := make(trace.Trace, 6000)
	for i := range tr {
		tr[i] = model.Item(rng.Intn(120))
	}
	sizes := []int{1, 2, 5, 16, 64, 119, 120, 200}
	curve := MissRatioCurve(tr, sizes)
	for si, k := range sizes {
		sim, err := cachesim.Replay(context.Background(), policy.NewItemLRU(k), trace.NewSliceSource(tr), cachesim.ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if curve[si] != sim.Misses {
			t.Errorf("k=%d: curve %d != simulated LRU %d", k, curve[si], sim.Misses)
		}
	}
}

func TestMissRatioCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := make(trace.Trace, 4000)
	for i := range tr {
		tr[i] = model.Item(rng.Intn(300))
	}
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	curve := MissRatioCurve(tr, sizes)
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatalf("miss curve not monotone: %v", curve)
		}
	}
	// At capacity ≥ distinct items, only cold misses remain.
	if curve[len(curve)-1] != int64(tr.Distinct()) {
		t.Errorf("full-capacity misses %d != distinct %d", curve[len(curve)-1], tr.Distinct())
	}
}

func TestBlockMissRatioCurveMatchesBlockSimulation(t *testing.T) {
	// The block-granularity curve equals the BlockLRU simulator when
	// every block fits exactly (full-block loads, k = frames × B).
	B := 4
	g := model.NewFixed(B)
	rng := rand.New(rand.NewSource(9))
	tr := make(trace.Trace, 5000)
	for i := range tr {
		tr[i] = model.Item(rng.Intn(160))
	}
	for _, frames := range []int{2, 5, 10, 39} {
		curve := BlockMissRatioCurve(tr, g, []int{frames})
		sim, err := cachesim.Replay(context.Background(), policy.NewBlockLRU(frames*B, g), trace.NewSliceSource(tr), cachesim.ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if curve[0] != sim.Misses {
			t.Errorf("frames=%d: curve %d != simulated BlockLRU %d", frames, curve[0], sim.Misses)
		}
	}
}

func TestMissRatioCurveZeroSize(t *testing.T) {
	tr := trace.Trace{1, 1, 1}
	curve := MissRatioCurve(tr, []int{0})
	if curve[0] != 3 {
		t.Errorf("k=0 misses = %d, want 3", curve[0])
	}
}

func TestFenwick(t *testing.T) {
	f := newFenwick(10)
	f.add(3, 5)
	f.add(7, 2)
	if got := f.prefix(2); got != 0 {
		t.Errorf("prefix(2) = %d", got)
	}
	if got := f.prefix(9); got != 7 {
		t.Errorf("prefix(9) = %d", got)
	}
	if got := f.rangeSum(4, 7); got != 2 {
		t.Errorf("rangeSum(4,7) = %d", got)
	}
	if got := f.rangeSum(5, 4); got != 0 {
		t.Errorf("empty range = %d", got)
	}
	f.add(3, -5)
	if got := f.prefix(9); got != 2 {
		t.Errorf("after removal prefix = %d", got)
	}
}
