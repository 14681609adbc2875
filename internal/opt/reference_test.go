package opt

import (
	"math/bits"
	"math/rand"
	"testing"

	"gccache/internal/model"
	"gccache/internal/trace"
)

// referenceExact is an unoptimized exponential solver used only to cross
// check Exact: it enumerates *every* reachable state (all subsets, not
// just maximal ones) with no dominance pruning.
func referenceExact(tr trace.Trace, geo model.Geometry, k int) int64 {
	index := make(map[model.Item]int)
	for _, it := range tr {
		if _, ok := index[it]; !ok {
			index[it] = len(index)
		}
	}
	blockMask := make([]uint32, len(index))
	for it, idx := range index {
		var m uint32
		for _, sib := range geo.ItemsOf(geo.BlockOf(it)) {
			if j, ok := index[sib]; ok {
				m |= 1 << uint(j)
			}
		}
		blockMask[idx] = m
	}
	frontier := map[uint32]int64{0: 0}
	for _, it := range tr {
		x := index[it]
		xbit := uint32(1) << uint(x)
		next := make(map[uint32]int64)
		relax := func(m uint32, c int64) {
			if old, ok := next[m]; !ok || c < old {
				next[m] = c
			}
		}
		for mask, cost := range frontier {
			if mask&xbit != 0 {
				relax(mask, cost)
				continue
			}
			avail := mask | blockMask[x]
			// All submasks of avail containing x with ≤ k bits.
			for sub := avail; ; sub = (sub - 1) & avail {
				if sub&xbit != 0 && bits.OnesCount32(sub) <= k {
					relax(sub, cost+1)
				}
				if sub == 0 {
					break
				}
			}
		}
		frontier = next
	}
	best := int64(1) << 60
	for _, c := range frontier {
		if c < best {
			best = c
		}
	}
	return best
}

func TestExactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 30; round++ {
		B := 2 + rng.Intn(2)
		g := model.NewFixed(B)
		universe := B * (2 + rng.Intn(2))
		n := 8 + rng.Intn(8)
		k := 2 + rng.Intn(3)
		tr := make(trace.Trace, n)
		for i := range tr {
			tr[i] = model.Item(rng.Intn(universe))
		}
		got, err := solve(tr, g, k)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceExact(tr, g, k)
		if got != want {
			t.Fatalf("round %d: Exact %d != reference %d (tr=%v k=%d B=%d)", round, got, want, tr, k, B)
		}
	}
}

func TestFailingInstanceFromBracketTest(t *testing.T) {
	tr := trace.Trace{1, 2, 2, 0, 2, 3, 6, 7, 5, 0, 0, 4, 4, 4, 5, 6, 0}
	g := model.NewFixed(2)
	got, err := solve(tr, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceExact(tr, g, 2)
	gs := GreedySibling(tr, g, 2)
	t.Logf("exact=%d reference=%d greedy=%d", got, want, gs)
	if got != want {
		t.Fatalf("Exact %d != reference %d", got, want)
	}
	if gs < want {
		t.Fatalf("GreedySibling %d beats true optimum %d: invalid execution", gs, want)
	}
}
