package policy

import (
	"context"
	"math/rand"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/trace"
)

func TestFIFOEvictsInsertionOrder(t *testing.T) {
	c := NewFIFO(2)
	mustMiss(t, c, 1)
	mustMiss(t, c, 2)
	mustHit(t, c, 1) // does NOT promote
	a := mustMiss(t, c, 3)
	if len(a.Evicted) != 1 || a.Evicted[0] != 1 {
		t.Fatalf("Evicted = %v, want [1] (FIFO ignores recency)", a.Evicted)
	}
}

func TestFIFOCapacityAndReset(t *testing.T) {
	c := NewFIFO(3)
	for i := 0; i < 10; i++ {
		c.Access(model.Item(i))
		checkInvariants(t, c)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("Reset")
	}
	assertPanics(t, func() { NewFIFO(0) })
}

func TestRandomEvictStaysWithinCapacity(t *testing.T) {
	c := NewRandomEvict(5, 42)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		c.Access(model.Item(rng.Intn(40)))
		checkInvariants(t, c)
	}
}

func TestRandomEvictDeterministicWithSeed(t *testing.T) {
	tr := make(trace.Trace, 2000)
	rng := rand.New(rand.NewSource(9))
	for i := range tr {
		tr[i] = model.Item(rng.Intn(30))
	}
	a := replay(t, NewRandomEvict(8, 7), tr)
	b := replay(t, NewRandomEvict(8, 7), tr)
	if a.Misses != b.Misses {
		t.Errorf("same seed, different misses: %d vs %d", a.Misses, b.Misses)
	}
}

func TestRandomEvictHitDoesNotEvict(t *testing.T) {
	c := NewRandomEvict(2, 1)
	mustMiss(t, c, 1)
	mustHit(t, c, 1)
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	assertPanics(t, func() { NewRandomEvict(0, 1) })
}

func TestMarkingPhaseBehaviour(t *testing.T) {
	c := NewMarking(2, 3)
	mustMiss(t, c, 1)
	mustMiss(t, c, 2)
	// Both marked. Next miss starts a new phase then evicts one of them.
	mustMiss(t, c, 3)
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if !c.Contains(3) {
		t.Error("newly requested item absent")
	}
}

func TestMarkingNeverEvictsMarkedMidPhase(t *testing.T) {
	// Capacity 3; mark 1 and 2, leave 3 unmarked by phase structure:
	// access 1,2,3 (all marked on load). New phase on 4th distinct miss;
	// then 1 is re-marked by a hit, so the next eviction must not pick 1.
	for seed := int64(0); seed < 20; seed++ {
		c := NewMarking(3, seed)
		c.Access(1)
		c.Access(2)
		c.Access(3)
		c.Access(4) // phase reset, random victim, 4 marked
		if !c.Contains(4) {
			t.Fatal("4 absent")
		}
		// Whichever two of {1,2,3} remain, hit one to mark it.
		var markedSurvivor model.Item
		for _, it := range []model.Item{1, 2, 3} {
			if c.Contains(it) {
				markedSurvivor = it
				c.Access(it)
				break
			}
		}
		c.Access(5) // must evict the unmarked survivor, not markedSurvivor or 4
		if !c.Contains(markedSurvivor) {
			t.Fatalf("seed %d: marked item %d evicted mid-phase", seed, markedSurvivor)
		}
		if !c.Contains(4) {
			t.Fatalf("seed %d: marked item 4 evicted mid-phase", seed)
		}
	}
}

func TestMarkingCapacityInvariant(t *testing.T) {
	c := NewMarking(6, 5)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4000; i++ {
		c.Access(model.Item(rng.Intn(50)))
		checkInvariants(t, c)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("Reset")
	}
	assertPanics(t, func() { NewMarking(0, 1) })
}

func TestAllPoliciesAgreeOnTrivialHit(t *testing.T) {
	g := model.NewFixed(4)
	caches := []cachesim.Cache{
		NewItemLRU(8),
		NewBlockLRU(8, g),
		NewFIFO(8),
		NewRandomEvict(8, 1),
		NewMarking(8, 1),
		NewAThreshold(8, 2, g),
		NewBlockLoadItemEvict(8, g),
	}
	for _, c := range caches {
		mustMiss(t, c, 1)
		mustHit(t, c, 1)
		if !c.Contains(1) {
			t.Errorf("%s: Contains(1) false", c.Name())
		}
		if c.Name() == "" {
			t.Errorf("unnamed policy %T", c)
		}
	}
}

func TestClockSecondChance(t *testing.T) {
	c := NewClock(2)
	mustMiss(t, c, 1)
	mustMiss(t, c, 2)
	mustHit(t, c, 1) // sets 1's reference bit
	// Miss on 3: hand at 0 (item 1, ref=1) → clear, advance; item 2
	// (ref=0) → evict 2.
	a := mustMiss(t, c, 3)
	if len(a.Evicted) != 1 || a.Evicted[0] != 2 {
		t.Fatalf("Evicted = %v, want [2] (second chance for 1)", a.Evicted)
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("contents wrong after sweep")
	}
}

func TestClockApproximatesLRU(t *testing.T) {
	// On a Zipf workload CLOCK should land within a modest factor of LRU.
	tr := make(trace.Trace, 30000)
	rng := rand.New(rand.NewSource(4))
	for i := range tr {
		tr[i] = model.Item(rng.Intn(200))
	}
	clock := replay(t, NewClock(64), tr)
	lru := replay(t, NewItemLRU(64), tr)
	if float64(clock.Misses) > 1.3*float64(lru.Misses) {
		t.Errorf("CLOCK misses %d vs LRU %d", clock.Misses, lru.Misses)
	}
}

func TestClockCapacityResetPanics(t *testing.T) {
	c := NewClock(4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		c.Access(model.Item(rng.Intn(30)))
		checkInvariants(t, c)
	}
	c.Reset()
	if c.Len() != 0 || c.Contains(1) {
		t.Error("Reset")
	}
	if c.Name() != "item-clock" {
		t.Error("Name")
	}
	assertPanics(t, func() { NewClock(0) })
}

func TestClockAllReferencedSweepsFullCircle(t *testing.T) {
	c := NewClock(3)
	for _, it := range []model.Item{1, 2, 3} {
		mustMiss(t, c, it)
	}
	for _, it := range []model.Item{1, 2, 3} {
		mustHit(t, c, it) // everything referenced
	}
	a := mustMiss(t, c, 4) // full sweep clears all bits, evicts slot 0
	if len(a.Evicted) != 1 || a.Evicted[0] != 1 {
		t.Fatalf("Evicted = %v, want [1]", a.Evicted)
	}
}

// replay runs tr through c from its current state.
func replay(t testing.TB, c cachesim.Cache, tr trace.Trace) cachesim.Stats {
	t.Helper()
	st, err := cachesim.Replay(context.Background(), c, trace.NewSliceSource(tr), cachesim.ReplayOptions{})
	if err != nil {
		t.Error(err)
	}
	return st
}
