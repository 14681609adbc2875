package core

import (
	"math/rand"
	"testing"

	"gccache/internal/model"
	"gccache/internal/policy"
	"gccache/internal/trace"
)

func TestGCMLoadsBlockUnmarked(t *testing.T) {
	g := model.NewFixed(4)
	c := NewGCM(8, g, 1)
	mustMiss(t, c, 1)
	// Whole block loaded, only 1 marked.
	for it := model.Item(0); it < 4; it++ {
		if !c.Contains(it) {
			t.Errorf("missing %d", it)
		}
	}
	if c.MarkedCount() != 1 {
		t.Errorf("MarkedCount = %d, want 1", c.MarkedCount())
	}
	mustHit(t, c, 2) // spatial hit marks 2
	if c.MarkedCount() != 2 {
		t.Errorf("MarkedCount = %d, want 2", c.MarkedCount())
	}
}

func TestGCMSiblingsDoNotEvictMarked(t *testing.T) {
	g := model.NewFixed(4)
	c := NewGCM(4, g, 2)
	// Fill with 4 marked items from distinct blocks.
	for _, it := range []model.Item{0, 4, 8, 12} {
		mustMiss(t, c, it)
	}
	if c.MarkedCount() != 4 {
		t.Fatalf("MarkedCount = %d", c.MarkedCount())
	}
	// Miss on 16: all marked → phase reset, evict one for 16 itself.
	// Siblings 17..19 may then replace only unmarked items.
	mustMiss(t, c, 16)
	if !c.Contains(16) {
		t.Fatal("requested item absent")
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
	// 16 is marked; everything else unmarked or replaced by siblings.
	if c.MarkedCount() != 1 {
		t.Errorf("MarkedCount = %d, want 1 after phase reset", c.MarkedCount())
	}
}

func TestGCMStopsLoadingWhenAllMarked(t *testing.T) {
	g := model.NewFixed(4)
	c := NewGCM(2, g, 3)
	mustMiss(t, c, 0) // loads 0 (marked) + one random sibling (unmarked)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	sibling := model.Item(0)
	for it := model.Item(1); it < 4; it++ {
		if c.Contains(it) {
			sibling = it
		}
	}
	mustHit(t, c, sibling) // mark the sibling
	if c.MarkedCount() != 2 {
		t.Fatalf("MarkedCount = %d", c.MarkedCount())
	}
	// Miss on 4: phase reset happens for the requested item's slot, but
	// after loading 4 (marked), siblings can only replace unmarked items.
	mustMiss(t, c, 4)
	if !c.Contains(4) {
		t.Fatal("4 absent")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestGCMNoSpatialLocalityStillCorrect(t *testing.T) {
	// Geometry with B=1: GCM degenerates to classic marking.
	g := model.NewFixed(1)
	c := NewGCM(4, g, 4)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 3000; i++ {
		c.Access(model.Item(rng.Intn(20)))
		if c.Len() > c.Capacity() {
			t.Fatalf("Len %d > cap", c.Len())
		}
	}
}

func TestGCMDeterministicWithSeed(t *testing.T) {
	g := model.NewFixed(4)
	rng := rand.New(rand.NewSource(10))
	tr := make(trace.Trace, 3000)
	for i := range tr {
		tr[i] = model.Item(rng.Intn(64))
	}
	a := replay(t, NewGCM(16, g, 99), tr)
	b := replay(t, NewGCM(16, g, 99), tr)
	if a.Misses != b.Misses {
		t.Errorf("same seed, different misses: %d vs %d", a.Misses, b.Misses)
	}
}

func TestGCMBeatsPlainMarkingOnSpatialScan(t *testing.T) {
	// §6.1: plain marking pays ≥ B misses per fresh block scanned; GCM
	// pays 1. Sequential scan over fresh blocks shows the gap.
	g := model.NewFixed(8)
	var tr trace.Trace
	for it := model.Item(0); it < 2048; it++ {
		tr = append(tr, it)
	}
	gcm := replay(t, NewGCM(64, g, 5), tr)
	mark := replay(t, policy.NewMarking(64, 5), tr)
	if gcm.Misses*4 > mark.Misses {
		t.Errorf("GCM %d misses vs marking %d: expected ≈B× gap", gcm.Misses, mark.Misses)
	}
}

func TestGCMCapacityInvariant(t *testing.T) {
	g := model.NewFixed(4)
	c := NewGCM(10, g, 12)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8000; i++ {
		c.Access(model.Item(rng.Intn(120)))
		if c.Len() > c.Capacity() {
			t.Fatalf("Len %d > cap %d", c.Len(), c.Capacity())
		}
	}
	c.Reset()
	if c.Len() != 0 || c.MarkedCount() != 0 {
		t.Error("Reset")
	}
}

func TestGCMPanics(t *testing.T) {
	g := model.NewFixed(2)
	for _, fn := range []func(){
		func() { NewGCM(0, g, 1) },
		func() { NewGCM(4, nil, 1) },
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
	if NewGCM(4, g, 1).Name() != "gcm" {
		t.Error("Name")
	}
}

// TestGCMDrawMatchesRejectionLoop pins drawUnmarked, which tests the
// draws for a power-of-two resident count eight at a time, to the plain
// rejection loop it stands for: Intn(n) on a copy of the stream, redrawn
// until the position is unmarked. Each state draws several victims in a
// row without changing the marks, and each must agree on the position
// and on the stream left behind, and leave markedCount alone. Stream
// indices 599–607 leave eight or fewer outputs before a refill, so the
// draw starts at or past the last whole group; n=192 takes Intn's loop.
func TestGCMDrawMatchesRejectionLoop(t *testing.T) {
	type pattern struct {
		name   string
		marked func(n int, rng *rand.Rand) []int // positions to mark, fewer than n
	}
	some := func(num, den int) func(int, *rand.Rand) []int {
		return func(n int, rng *rand.Rand) []int {
			return rng.Perm(n)[:min(n-1, n*num/den)]
		}
	}
	allBut := func(lone func(n int) int) func(int, *rand.Rand) []int {
		return func(n int, _ *rand.Rand) []int {
			var ps []int
			for p := 0; p < n; p++ {
				if p != lone(n) {
					ps = append(ps, p)
				}
			}
			return ps
		}
	}
	patterns := []pattern{
		{"none", some(0, 1)},
		{"half", some(1, 2)},
		{"0.99", some(99, 100)},
		{"all-but-first", allBut(func(int) int { return 0 })},
		{"all-but-last", allBut(func(n int) int { return n - 1 })},
	}
	starts := []int{0, 599, 600, 601, 602, 603, 604, 605, 606, 607}
	const draws = 12
	for _, n := range []int{1, 2, 8, 64, 192, 4096} {
		for _, pat := range patterns {
			for _, start := range starts {
				rng := rand.New(rand.NewSource(int64(n*1000 + start)))
				c := NewGCM(n, model.NewFixed(1), int64(start)-int64(n))
				for it := 0; it < n; it++ {
					c.insert(model.Item(it))
				}
				ps := pat.marked(n, rng)
				for _, p := range ps {
					c.markPos(p, c.items[p])
				}
				for range start {
					c.rng.Uint64()
				}
				for d := 0; d < draws; d++ {
					ref := c.rng
					want := -1
					for want < 0 {
						if p := ref.Intn(n); c.marks[p] == 0 {
							want = p
						}
					}
					got := c.drawUnmarked()
					if got != want || c.rng.i != ref.i || c.rng.vec != ref.vec {
						t.Fatalf("n=%d %s start=%d draw %d: position %d, stream index %d; rejection loop %d, index %d (batches equal: %v)",
							n, pat.name, start, d, got, c.rng.i, want, ref.i, c.rng.vec == ref.vec)
					}
					if c.markedCount != len(ps) {
						t.Fatalf("n=%d %s start=%d draw %d: markedCount %d, want %d", n, pat.name, start, d, c.markedCount, len(ps))
					}
				}
			}
		}
	}
}
