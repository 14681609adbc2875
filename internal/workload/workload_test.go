package workload

import (
	"math"
	"testing"
	"time"

	"gccache/internal/locality"
	"gccache/internal/model"
	"gccache/internal/trace"
)

func TestSequential(t *testing.T) {
	tr := Sequential(10, 5)
	want := trace.Trace{10, 11, 12, 13, 14}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("Sequential = %v", tr)
		}
	}
}

func TestCyclicScanWraps(t *testing.T) {
	tr := CyclicScan(3, 7)
	want := trace.Trace{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("CyclicScan = %v", tr)
		}
	}
	if got := CyclicScan(0, 2); len(got) != 2 {
		t.Error("n=0 not clamped")
	}
}

func TestStrideOneItemPerBlock(t *testing.T) {
	g := model.NewFixed(8)
	tr := Stride(16, 8, 64)
	s := trace.Summarize(tr, g)
	if s.MeanItemsPerBlock != 1 {
		t.Errorf("stride ≥ B should have 1 item/block, got %v", s.MeanItemsPerBlock)
	}
}

func TestZipfSkew(t *testing.T) {
	tr := Zipf(1000, 1.5, 50000, 1)
	if len(tr) != 50000 {
		t.Fatalf("len = %d", len(tr))
	}
	counts := make(map[model.Item]int)
	for _, it := range tr {
		counts[it]++
	}
	// Rank 0 must dominate: at least 10× the median frequency.
	if counts[0] < len(tr)/10 {
		t.Errorf("zipf head count = %d, want heavy skew", counts[0])
	}
	// Deterministic per seed.
	tr2 := Zipf(1000, 1.5, 50000, 1)
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatal("zipf not deterministic per seed")
		}
	}
}

func TestScatterPreservesReusePattern(t *testing.T) {
	tr := trace.Trace{1, 2, 1, 3, 2, 1}
	sc := Scatter(tr, 64, 5)
	if len(sc) != len(tr) {
		t.Fatal("length changed")
	}
	// Same reuse structure: positions equal iff original positions equal.
	for i := range tr {
		for j := range tr {
			if (tr[i] == tr[j]) != (sc[i] == sc[j]) {
				t.Fatalf("reuse pattern broken at %d,%d", i, j)
			}
		}
	}
	// No two distinct items share a block of size ≤ 64.
	g := model.NewFixed(64)
	blocks := make(map[model.Block]model.Item)
	for _, it := range sc {
		if prev, ok := blocks[g.BlockOf(it)]; ok && prev != it {
			t.Fatalf("items %d and %d share a block", prev, it)
		}
		blocks[g.BlockOf(it)] = it
	}
}

func TestBlockRunsLocalityTracksMeanRunLength(t *testing.T) {
	B := 16
	g := model.NewFixed(B)
	for _, mean := range []float64{1, 4, 16} {
		tr, err := BlockRuns(BlockRunsConfig{
			NumBlocks: 256, BlockSize: B, MeanRunLength: mean,
			Length: 60000, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := trace.Summarize(tr, g)
		if math.Abs(s.BlockRunLengthMean-mean) > mean*0.35+0.3 {
			t.Errorf("mean=%v: measured run length %v", mean, s.BlockRunLengthMean)
		}
	}
}

func TestBlockRunsSpatialLocalityRatio(t *testing.T) {
	B := 16
	g := model.NewFixed(B)
	trLow, err := BlockRuns(BlockRunsConfig{NumBlocks: 128, BlockSize: B,
		MeanRunLength: 1, Length: 30000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	trHigh, err := BlockRuns(BlockRunsConfig{NumBlocks: 128, BlockSize: B,
		MeanRunLength: 16, Length: 30000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{64, 256, 1024}
	rLow := locality.SpatialLocalityRatio(
		locality.MeasureItems(trLow, lengths), locality.MeasureBlocks(trLow, g, lengths))
	rHigh := locality.SpatialLocalityRatio(
		locality.MeasureItems(trHigh, lengths), locality.MeasureBlocks(trHigh, g, lengths))
	if rHigh < 2*rLow {
		t.Errorf("f/g ratio: high-run %v should far exceed low-run %v", rHigh, rLow)
	}
}

func TestBlockRunsRejectsBadConfig(t *testing.T) {
	if _, err := BlockRuns(BlockRunsConfig{NumBlocks: 0, BlockSize: 4, Length: 10}); err == nil {
		t.Error("bad config accepted")
	}
	// A skew that is not finite never ended rand.Zipf's rejection loop
	// (+Inf) or silently meant uniform (NaN, −Inf): refused.
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		returned, err := withDeadline(func() error {
			_, err := BlockRuns(BlockRunsConfig{NumBlocks: 4, BlockSize: 4, ZipfS: s, Length: 10})
			return err
		})
		if !returned {
			t.Errorf("ZipfS=%v: BlockRuns did not return within the deadline", s)
		} else if err == nil {
			t.Errorf("ZipfS=%v accepted", s)
		}
	}
}

// withDeadline runs f on its own goroutine and returns its error, or
// reports that f had not returned after 10 s, so a generator that
// never finishes fails its test instead of stalling the suite.
func withDeadline(f func() error) (returned bool, err error) {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return true, err
	case <-time.After(10 * time.Second):
		return false, nil
	}
}

func TestHotColdMixesLocalities(t *testing.T) {
	hc := HotCold{HotItems: 4, BlockSize: 8, HotFraction: 0.5,
		ColdUniverse: 1000, Length: 20000, Seed: 2}
	tr, err := hc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, it := range tr {
		if uint64(it) < 4*8 {
			hot++
		}
	}
	frac := float64(hot) / float64(len(tr))
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("hot fraction = %v, want ≈0.5", frac)
	}
}

func TestHotColdValidation(t *testing.T) {
	if _, err := (HotCold{HotItems: 0, BlockSize: 1, ColdUniverse: 1, Length: 1}).Generate(); err == nil {
		t.Error("HotItems=0 accepted")
	}
	if _, err := (HotCold{HotItems: 1, BlockSize: 1, ColdUniverse: 1, Length: 1, HotFraction: 1.5}).Generate(); err == nil {
		t.Error("HotFraction>1 accepted")
	}
}

func TestMatrixTraversalLocality(t *testing.T) {
	g := model.NewFixed(8)
	row := MatrixTraversal(16, 64, true, 1)
	col := MatrixTraversal(16, 64, false, 1)
	if len(row) != 16*64 || len(col) != 16*64 {
		t.Fatal("wrong lengths")
	}
	sRow := trace.Summarize(row, g)
	sCol := trace.Summarize(col, g)
	if sRow.BlockRunLengthMean < 4 {
		t.Errorf("row-major run length %v, want ≈ 8", sRow.BlockRunLengthMean)
	}
	if sCol.BlockRunLengthMean > 1.01 {
		t.Errorf("col-major run length %v, want 1", sCol.BlockRunLengthMean)
	}
}

func TestFromSpecAllForms(t *testing.T) {
	specs := []string{
		"sequential:len=100",
		"cyclic:n=10,len=100",
		"stride:n=8,s=4,len=100",
		"zipf:n=100,s=1.3,len=100",
		"blockruns:blocks=16,B=8,run=4,len=100",
		"blockruns:blocks=16,B=8,run=4,zipf=1.2,len=100",
		"hotcold:hot=4,B=8,frac=0.5,cold=100,len=100",
		"matrix:r=8,c=8,colmajor=1,passes=1",
		"matrix", // all defaults
	}
	for _, s := range specs {
		tr, err := FromSpec(s, 1)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if len(tr) == 0 {
			t.Errorf("%q: empty trace", s)
		}
	}
}

func TestFromSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"unknownkind:len=10",
		"cyclic:n=ten",
		"cyclic:n=10,bogus=1",
		"cyclic:=5",
		"zipf:s=abc",
		// A skew that is not finite once hung rand.Zipf's rejection loop.
		"zipf:n=10,s=NaN,len=10",
		"zipf:n=10,s=Inf,len=10",
		"blockruns:blocks=4,B=4,run=2,zipf=Inf,len=50",
	}
	for _, s := range bad {
		returned, err := withDeadline(func() error {
			_, err := FromSpec(s, 1)
			return err
		})
		if !returned {
			t.Errorf("%q: FromSpec did not return within the deadline", s)
		} else if err == nil {
			t.Errorf("%q: expected error", s)
		}
	}
}

func TestPhased(t *testing.T) {
	tr := Phased(Sequential(0, 3), Sequential(100, 2))
	if len(tr) != 5 || tr[3] != 100 {
		t.Errorf("Phased = %v", tr)
	}
}

func TestLPWorstCaseComponents(t *testing.T) {
	g := model.NewFixed(8)
	// Pure temporal: one item per block, cycling i+1 items.
	tr, err := LPWorstCase(LPWorstConfig{ItemLayer: 16, BlockLayer: 32,
		BlockSize: 8, SpatialShare: 0, Length: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.Distinct(); d != 17 {
		t.Errorf("temporal distinct = %d, want 17", d)
	}
	if s := trace.Summarize(tr, g); s.MeanItemsPerBlock != 1 {
		t.Errorf("temporal items/block = %v, want 1", s.MeanItemsPerBlock)
	}
	// Pure spatial: b/B+1 = 5 blocks, round-robin items.
	tr, err = LPWorstCase(LPWorstConfig{ItemLayer: 16, BlockLayer: 32,
		BlockSize: 8, SpatialShare: 1, Length: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if db := tr.DistinctBlocks(g); db != 5 {
		t.Errorf("spatial blocks = %d, want 5", db)
	}
	// Consecutive accesses always change block (visits rotate).
	for i := 1; i < len(tr); i++ {
		if g.BlockOf(tr[i]) == g.BlockOf(tr[i-1]) {
			t.Fatalf("consecutive same-block accesses at %d", i)
		}
	}
}

func TestLPWorstCaseMixAndValidation(t *testing.T) {
	tr, err := LPWorstCase(LPWorstConfig{ItemLayer: 8, BlockLayer: 16,
		BlockSize: 4, SpatialShare: 0.5, Length: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 1000 {
		t.Fatalf("len = %d", len(tr))
	}
	// Components must not share blocks: temporal items sit below sBase.
	g := model.NewFixed(4)
	sBase := model.Block(9 + 1) // (i+1 blocks) + 1 gap
	tCount, sCount := 0, 0
	for _, it := range tr {
		if g.BlockOf(it) >= sBase {
			sCount++
		} else {
			tCount++
		}
	}
	if sCount < 450 || sCount > 550 {
		t.Errorf("spatial share = %d/1000, want ≈500", sCount)
	}
	if _, err := LPWorstCase(LPWorstConfig{ItemLayer: 0, BlockSize: 4}); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := LPWorstCase(LPWorstConfig{ItemLayer: 4, BlockLayer: 4, BlockSize: 4, SpatialShare: 2}); err == nil {
		t.Error("bad share accepted")
	}
}

func TestFromSpecRejectsHostileSizes(t *testing.T) {
	for _, s := range []string{
		"sequential:len=-5",
		"sequential:len=999999999999",
		"matrix:r=100000,c=100000,passes=10",
	} {
		if _, err := FromSpec(s, 1); err == nil {
			t.Errorf("%q accepted", s)
		}
	}
}

func TestDriftingAlternatesRegimes(t *testing.T) {
	g := model.NewFixed(8)
	d := Drifting{BlockSize: 8, HotItems: 20, SweepBlocks: 16,
		EpochLength: 1000, Epochs: 4}
	tr, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 4000 {
		t.Fatalf("len = %d", len(tr))
	}
	// Epoch 0: one item per block (no spatial locality).
	s0 := trace.Summarize(tr[:1000], g)
	if s0.MeanItemsPerBlock != 1 {
		t.Errorf("temporal epoch items/block = %v", s0.MeanItemsPerBlock)
	}
	// Epoch 1: sequential sweep (full blocks).
	s1 := trace.Summarize(tr[1000:2000], g)
	if s1.MeanItemsPerBlock < 7 {
		t.Errorf("spatial epoch items/block = %v", s1.MeanItemsPerBlock)
	}
	if _, err := (Drifting{}).Generate(); err == nil {
		t.Error("zero config accepted")
	}
}

func TestStorageServerComponents(t *testing.T) {
	g := model.NewFixed(16)
	s := StorageServer{BlockSize: 16, Streams: 4, RandomUniverse: 4096,
		MetaBlocks: 32, RandomFrac: 0.3, MetaFrac: 0.2, Length: 60000, Seed: 8}
	tr, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 60000 {
		t.Fatalf("len = %d", len(tr))
	}
	// Four streams of span 60000 (a multiple of B), then 4096 random
	// items, then the metadata blocks.
	const randomBase, metaBase = 4 * 60000, 4*60000 + 4096
	var stream, random, meta int
	for _, it := range tr {
		switch {
		case uint64(it) >= metaBase+32*16:
			t.Fatalf("item %d past the metadata region", it)
		case uint64(it) >= metaBase:
			meta++
		case uint64(it) >= randomBase:
			random++
		default:
			stream++
		}
	}
	if fr := float64(random) / 60000; fr < 0.25 || fr > 0.35 {
		t.Errorf("random fraction %v", fr)
	}
	if fm := float64(meta) / 60000; fm < 0.15 || fm > 0.25 {
		t.Errorf("meta fraction %v", fm)
	}
	// Stream component is spatially perfect: long block runs.
	st := trace.Summarize(tr, g)
	if st.DistinctBlocks == 0 || st.Requests == 0 {
		t.Fatal("empty summary")
	}
	if _, err := (StorageServer{}).Generate(); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := (StorageServer{BlockSize: 8, Streams: 1, RandomUniverse: 1,
		MetaBlocks: 1, RandomFrac: 0.9, MetaFrac: 0.3, Length: 1}).Generate(); err == nil {
		t.Error("bad mix accepted")
	}
}
