package opt

import (
	"context"
	"math/rand"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/policy"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

func TestBeladyKnownSequences(t *testing.T) {
	cases := []struct {
		tr   trace.Trace
		k    int
		want int64
	}{
		// All distinct: every access misses.
		{trace.Trace{1, 2, 3, 4}, 2, 4},
		// Fits in cache: cold misses only.
		{trace.Trace{1, 2, 1, 2, 1}, 2, 2},
		// Classic: 1 2 3 1 2 3 with k=2. OPT: misses 1,2,3 (keep 1),
		// hit 1, miss 2 (keep 2... ) → textbook answer 4.
		{trace.Trace{1, 2, 3, 1, 2, 3}, 2, 4},
		{nil, 2, 0},
		// k=0 degenerates to all misses.
		{trace.Trace{1, 1, 1}, 0, 3},
	}
	for _, c := range cases {
		if got := Belady(c.tr, c.k); got != c.want {
			t.Errorf("Belady(%v, %d) = %d, want %d", c.tr, c.k, got, c.want)
		}
	}
}

func TestBeladyNeverWorseThanLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 30; round++ {
		n := 200 + rng.Intn(200)
		u := 5 + rng.Intn(20)
		k := 2 + rng.Intn(6)
		tr := make(trace.Trace, n)
		for i := range tr {
			tr[i] = model.Item(rng.Intn(u))
		}
		st, err := cachesim.Replay(context.Background(), policy.NewItemLRU(k), trace.NewSliceSource(tr), cachesim.ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lru := st.Misses
		opt := Belady(tr, k)
		if opt > lru {
			t.Fatalf("round %d: Belady %d > LRU %d", round, opt, lru)
		}
		if opt < int64(tr.Distinct()) && u > k {
			// Cold misses alone are ≥ distinct items when nothing fits...
			// only check OPT ≥ distinct when universe exceeds cache.
			_ = opt
		}
		if opt < 0 {
			t.Fatal("negative cost")
		}
	}
}

// bruteForceItemOPT exhaustively searches the item-caching optimum for
// tiny instances (reference for Belady).
func bruteForceItemOPT(tr trace.Trace, k int) int64 {
	g := model.NewFixed(1)
	v, err := solve(tr, g, k)
	if err != nil {
		panic(err)
	}
	return v
}

func TestBeladyMatchesExactB1(t *testing.T) {
	// With B = 1 the GC problem *is* traditional caching, so the exact GC
	// solver must agree with Belady exactly.
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 25; round++ {
		n := 10 + rng.Intn(15)
		u := 3 + rng.Intn(5)
		k := 1 + rng.Intn(3)
		tr := make(trace.Trace, n)
		for i := range tr {
			tr[i] = model.Item(rng.Intn(u))
		}
		if got, want := bruteForceItemOPT(tr, k), Belady(tr, k); got != want {
			t.Fatalf("round %d: Exact(B=1) %d != Belady %d on %v k=%d", round, got, want, tr, k)
		}
	}
}

func TestExactKnownGCInstances(t *testing.T) {
	g := model.NewFixed(2) // blocks {0,1}, {2,3}, {4,5}, ...
	cases := []struct {
		name string
		tr   trace.Trace
		k    int
		want int64
	}{
		{"free sibling", trace.Trace{0, 1}, 2, 1},
		{"sibling after eviction pressure", trace.Trace{0, 1, 0, 1}, 2, 1},
		{"two blocks fit", trace.Trace{0, 1, 2, 3, 0, 1, 2, 3}, 4, 2},
		{"two blocks, cache 2: OPT keeps pairs", trace.Trace{0, 1, 2, 3, 0, 1, 2, 3}, 2, 4},
		{"item cache forced", trace.Trace{0, 2, 0, 2}, 2, 2},
		{"empty", nil, 2, 0},
	}
	for _, c := range cases {
		got, err := solve(c.tr, g, c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: Exact = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestExactRejectsLargeUniverse(t *testing.T) {
	tr := make(trace.Trace, MaxExactUniverse+1)
	for i := range tr {
		tr[i] = model.Item(i)
	}
	if _, err := solve(tr, model.NewFixed(2), 2); err == nil {
		t.Fatal("oversized universe accepted")
	}
	if _, err := solve(trace.Trace{1}, model.NewFixed(2), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestHeuristicsBracketExact(t *testing.T) {
	// The central soundness property: BlockLowerBound ≤ Exact ≤ every
	// heuristic upper bound, on random small GC instances.
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 40; round++ {
		B := 2 + rng.Intn(2) // 2 or 3
		nBlocks := 3 + rng.Intn(2)
		g := model.NewFixed(B)
		universe := B * nBlocks
		n := 12 + rng.Intn(10)
		k := 2 + rng.Intn(4)
		tr := make(trace.Trace, n)
		for i := range tr {
			tr[i] = model.Item(rng.Intn(universe))
		}
		exact, err := solve(tr, g, k)
		if err != nil {
			t.Fatal(err)
		}
		est := EstimateOPT(tr, g, k)
		if est.Lower > exact {
			t.Fatalf("round %d: lower bound %d > exact %d (tr=%v k=%d B=%d)",
				round, est.Lower, exact, tr, k, B)
		}
		if est.Upper < exact {
			t.Fatalf("round %d: heuristic %s gives %d < exact %d — not a valid execution? (tr=%v k=%d B=%d)",
				round, est.UpperMethod, est.Upper, exact, tr, k, B)
		}
	}
}

func TestGreedySiblingExploitsSpatialLocality(t *testing.T) {
	// Sequential scan over blocks: greedy-sibling and block-Belady pay one
	// miss per block; item Belady pays one per item.
	g := model.NewFixed(4)
	tr := workload.Sequential(0, 64)
	if got := GreedySibling(tr, g, 8); got != 16 {
		t.Errorf("GreedySibling = %d, want 16 (one per block)", got)
	}
	if got := BlockBelady(tr, g, 8); got != 16 {
		t.Errorf("BlockBelady = %d, want 16", got)
	}
	if got := Belady(tr, 8); got != 64 {
		t.Errorf("Belady = %d, want 64", got)
	}
}

func TestBlockBeladyPollution(t *testing.T) {
	// One hot item per block, 3 hot blocks, k=4 with B=4: block-Belady
	// can hold only one block; item-level Belady holds all 3 items.
	g := model.NewFixed(4)
	tr := trace.Trace{0, 4, 8}.Repeat(20)
	blockCost := BlockBelady(tr, g, 4)
	itemCost := Belady(tr, 4)
	if itemCost != 3 {
		t.Errorf("item Belady = %d, want 3", itemCost)
	}
	if blockCost <= itemCost {
		t.Errorf("block Belady = %d should suffer pollution vs %d", blockCost, itemCost)
	}
}

func TestBlockLowerBoundProperties(t *testing.T) {
	g := model.NewFixed(4)
	tr := workload.Sequential(0, 64) // 16 blocks
	// Every first touch of a block must miss: LB = 16 here.
	if got := BlockLowerBound(tr, g, 8); got != 16 {
		t.Errorf("BlockLowerBound = %d, want 16", got)
	}
	// LB never exceeds the trace's block-level distinct count on a
	// single-pass trace... and never exceeds the upper estimates.
	est := EstimateOPT(tr, g, 8)
	if est.Lower > est.Upper {
		t.Errorf("bracket inverted: %+v", est)
	}
}

func TestEstimateOPTPicksBestUpper(t *testing.T) {
	g := model.NewFixed(4)
	// Spatial trace: block methods win.
	est := EstimateOPT(workload.Sequential(0, 64), g, 8)
	if est.Upper != 16 {
		t.Errorf("Upper = %d, want 16", est.Upper)
	}
	// Pollution trace: item Belady wins.
	est = EstimateOPT(trace.Trace{0, 4, 8}.Repeat(20), g, 4)
	if est.Upper != 3 || est.UpperMethod != "item-belady" {
		t.Errorf("est = %+v, want item-belady 3", est)
	}
}

func TestBeladyKeysStaleEntryStress(t *testing.T) {
	// Heavy re-access pattern stresses the lazy-deletion heap.
	rng := rand.New(rand.NewSource(123))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(12))
	}
	got := BeladyKeys(keys, 4)
	if got < 12 || got > 5000 {
		t.Errorf("implausible Belady cost %d", got)
	}
	// Differential against the exact solver on a truncated prefix.
	tr := make(trace.Trace, 24)
	for i := range tr {
		tr[i] = model.Item(keys[i])
	}
	want, err := solve(tr, model.NewFixed(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	prefix := make([]uint64, 24)
	for i := range prefix {
		prefix[i] = keys[i]
	}
	if got := BeladyKeys(prefix, 4); got != want {
		t.Errorf("Belady prefix = %d, exact = %d", got, want)
	}
}

func TestExactScheduleMatchesExactAndVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for round := 0; round < 25; round++ {
		B := 2 + rng.Intn(2)
		g := model.NewFixed(B)
		universe := B * (2 + rng.Intn(2))
		n := 10 + rng.Intn(10)
		k := 2 + rng.Intn(4)
		tr := make(trace.Trace, n)
		for i := range tr {
			tr[i] = model.Item(rng.Intn(universe))
		}
		want, err := solve(tr, g, k)
		if err != nil {
			t.Fatal(err)
		}
		res, sched, err := ExactSchedule(context.Background(), tr, g, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incumbent != want {
			t.Fatalf("round %d: schedule cost %d != exact %d", round, res.Incumbent, want)
		}
		verified, err := VerifySchedule(tr, g, k, sched)
		if err != nil {
			t.Fatalf("round %d: schedule invalid: %v (tr=%v k=%d B=%d)", round, err, tr, k, B)
		}
		if verified != want {
			t.Fatalf("round %d: verified cost %d != %d", round, verified, want)
		}
	}
}

func TestExactScheduleEdgeCases(t *testing.T) {
	g := model.NewFixed(2)
	if _, _, err := ExactSchedule(context.Background(), nil, g, 2); err != nil {
		t.Errorf("empty trace: %v", err)
	}
	if _, _, err := ExactSchedule(context.Background(), trace.Trace{1}, g, 0); err == nil {
		t.Error("k=0 accepted")
	}
	big := make(trace.Trace, MaxExactUniverse+1)
	for i := range big {
		big[i] = model.Item(i)
	}
	if _, _, err := ExactSchedule(context.Background(), big, g, 2); err == nil {
		t.Error("oversized universe accepted")
	}
}

func TestVerifyScheduleRejectsIllegal(t *testing.T) {
	g := model.NewFixed(2)
	tr := trace.Trace{0, 1}
	// Legal schedule: load {0,1}, then hit.
	good := []Step{
		{Load: []model.Item{0, 1}},
		{Hit: true},
	}
	if cost, err := VerifySchedule(tr, g, 2, good); err != nil || cost != 1 {
		t.Fatalf("good schedule rejected: %v cost=%d", err, cost)
	}
	bad := [][]Step{
		// Wrong hit flag.
		{{Hit: true}, {Hit: true}},
		// Load outside the block.
		{{Load: []model.Item{0, 5}}, {Hit: true}},
		// Missing demand load.
		{{Load: []model.Item{1}}, {Hit: true}},
		// Capacity overflow.
		{{Load: []model.Item{0, 1}}, {Hit: true}},
	}
	caps := []int{2, 2, 2, 1}
	for i, sched := range bad {
		if _, err := VerifySchedule(tr, g, caps[i], sched); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
	if _, err := VerifySchedule(tr, g, 2, good[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestPolicyCostCertifiesRealPolicies(t *testing.T) {
	// Independent cross-check of the online Validator: replaying each
	// policy's recorded schedule through VerifySchedule must succeed and
	// agree with the simulator's miss count — and OPT never exceeds any
	// of them.
	B := 8
	g := model.NewFixed(B)
	tr, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 32, BlockSize: B, MeanRunLength: 4, Length: 8000, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := 48
	caches := []cachesim.Cache{
		policy.NewItemLRU(k),
		policy.NewBlockLRU(k, g),
		policy.NewBlockLoadItemEvict(k, g),
		policy.NewFootprint(k, g),
		policy.NewClock(k),
	}
	lower := BlockLowerBound(tr, g, k)
	for _, c := range caches {
		cost, err := PolicyCost(c, g, tr)
		if err != nil {
			t.Fatalf("%s: illegal execution: %v", c.Name(), err)
		}
		c.Reset()
		sim, err := cachesim.Replay(context.Background(), c, trace.NewSliceSource(tr), cachesim.ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cost != sim.Misses {
			t.Errorf("%s: verified cost %d != simulated %d", c.Name(), cost, sim.Misses)
		}
		if cost < lower {
			t.Errorf("%s: cost %d below the certified OPT lower bound %d", c.Name(), cost, lower)
		}
	}
}
