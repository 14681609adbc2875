package cachesim_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/policy"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// streamFixture writes tr to a temp file and returns the path.
func streamFixture(t *testing.T, tr trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.gct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayOptionsDifferential is Replay's equivalence gate. Every
// source shape (the concrete slice loop, the same slice forced through
// the generic loop, a binary trace.Scanner), universe (undeclared and
// declared) and probe setting (none, obs.Counters) must produce Stats
// identical to a fresh cache's plain replay, for every policy.
// One cache per policy serves every combination, Reset (and re-seeded)
// in between, so the table also pins that reuse matches a fresh build.
func TestReplayOptionsDifferential(t *testing.T) {
	geo := model.NewFixed(8)
	tr, err := workload.FromSpec("blockruns:blocks=128,B=8,run=4,len=40000", 11)
	if err != nil {
		t.Fatal(err)
	}
	u := model.ItemUniverse(geo, tr.Universe())
	var enc bytes.Buffer
	if err := tr.Write(&enc); err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		open func() trace.Source
	}{
		{"slice", func() trace.Source { return trace.NewSliceSource(tr) }},
		{"generic", func() trace.Source { return struct{ trace.Source }{trace.NewSliceSource(tr)} }},
		{"scanner", func() trace.Source {
			sc, err := trace.NewScanner(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return sc
		}},
	}
	const seed = 42
	builders := []struct {
		name  string
		build func() cachesim.Cache
	}{
		{"item-lru", func() cachesim.Cache { return policy.NewItemLRU(256) }},
		{"block-lru", func() cachesim.Cache { return policy.NewBlockLRU(256, geo) }},
		{"iblp", func() cachesim.Cache { return core.NewIBLPEvenSplit(256, geo) }},
		{"gcm", func() cachesim.Cache { return core.NewGCM(256, geo, seed) }},
	}
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			want, err := cachesim.Replay(ctx, b.build(), trace.NewSliceSource(tr), cachesim.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c := b.build()
			cold := func() {
				if rs, ok := c.(cachesim.Reseeder); ok {
					rs.Reseed(seed)
				}
				c.Reset()
			}
			var probes []*obs.Counters
			for _, src := range sources {
				for _, universe := range []int{0, u} {
					for _, probed := range []bool{false, true} {
						opt := cachesim.ReplayOptions{Universe: universe}
						if probed {
							ctr := &obs.Counters{}
							probes = append(probes, ctr)
							opt.Probe = ctr
						}
						cold()
						got, err := cachesim.Replay(ctx, c, src.open(), opt)
						if err != nil {
							t.Fatalf("%s universe=%d probed=%v: %v", src.name, universe, probed, err)
						}
						if got != want {
							t.Errorf("%s universe=%d probed=%v:\n  got  %+v\n  want %+v", src.name, universe, probed, got, want)
						}
					}
				}
				cold()
				st, err := cachesim.Replay(cancelled, c, src.open(), cachesim.ReplayOptions{Universe: u})
				if err != context.Canceled || st.Accesses != 0 {
					t.Errorf("%s: pre-cancelled replay: %d accesses, err = %v; want 0, context.Canceled", src.name, st.Accesses, err)
				}
			}
			// Each probe saw exactly its own replay, in both views: it was
			// attached to the policy and the recorder, and detached after.
			for _, ctr := range probes {
				if ctr.RecorderAccesses() != want.Accesses || ctr.PolicyMisses() != want.Misses {
					t.Errorf("probe saw %d accesses and %d policy misses, want %d and %d",
						ctr.RecorderAccesses(), ctr.PolicyMisses(), want.Accesses, want.Misses)
				}
			}
		})
	}
}

// TestRunFileMatchesSliceReplay is RunFile's equivalence gate:
// replaying a trace from disk must produce Stats byte-identical to the
// in-memory replay, with and without a declared universe, for every
// policy.
func TestRunFileMatchesSliceReplay(t *testing.T) {
	geo := model.NewFixed(8)
	tr, err := workload.FromSpec("blockruns:blocks=128,B=8,run=4,len=40000", 11)
	if err != nil {
		t.Fatal(err)
	}
	u := model.ItemUniverse(geo, tr.Universe())
	path := streamFixture(t, tr)

	builders := map[string]func() cachesim.Cache{
		"item-lru":  func() cachesim.Cache { return policy.NewItemLRU(256) },
		"block-lru": func() cachesim.Cache { return policy.NewBlockLRU(256, geo) },
		"iblp":      func() cachesim.Cache { return core.NewIBLPEvenSplit(256, geo) },
		"gcm":       func() cachesim.Cache { return core.NewGCM(256, geo, 42) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			want := replay(t, build(), tr)
			for _, universe := range []int{0, u} {
				got, err := cachesim.RunFile(context.Background(), build(), path, universe)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("RunFile(universe=%d) stats differ from in-memory replay:\n  file:  %+v\n  slice: %+v", universe, got, want)
				}
			}
		})
	}
}

// TestRunFileRejectsItemsOutsideUniverse checks a trace file is treated
// as outside input: an item beyond the declared universe ends the replay
// with an error naming the item and the bound, and the statistics so
// far — for an item cache and for a block cache, whose dense arrays
// would otherwise grow to the item.
func TestRunFileRejectsItemsOutsideUniverse(t *testing.T) {
	path := streamFixture(t, trace.Trace{0, 1, 5000})
	for _, c := range []cachesim.Cache{policy.NewItemLRU(4), policy.NewBlockLRU(4, model.NewFixed(4))} {
		st, err := cachesim.RunFile(context.Background(), c, path, 100)
		if err == nil || !strings.Contains(err.Error(), "5000") || !strings.Contains(err.Error(), "100") {
			t.Errorf("%s: err = %v, want one naming item 5000 and universe 100", c.Name(), err)
		}
		if st.Accesses != 2 {
			t.Errorf("%s: %d accesses replayed before the bad item, want 2", c.Name(), st.Accesses)
		}
	}
}

// TestReplayUndeclaredUniverseRefusesMaxUniverse: with no declared
// universe, Replay still bounds requests. Item MaxUniverse ends the
// replay with an error naming it, not a panic, after the requests
// before it.
func TestReplayUndeclaredUniverseRefusesMaxUniverse(t *testing.T) {
	tr := trace.Trace{0, 1, cachesim.MaxUniverse, 2}
	for _, c := range []cachesim.Cache{policy.NewItemLRU(4), core.NewIBLPEvenSplit(4, model.NewFixed(4))} {
		st, err := cachesim.Replay(context.Background(), c, trace.NewSliceSource(tr), cachesim.ReplayOptions{})
		if err == nil || !strings.Contains(err.Error(), "4194304") {
			t.Errorf("%s: err = %v, want one naming item 4194304", c.Name(), err)
		}
		if st.Accesses != 2 {
			t.Errorf("%s: %d accesses replayed before the refused item, want 2", c.Name(), st.Accesses)
		}
	}
}

// TestCheckUniverseComparesItems: CheckUniverse passes the largest item
// below MaxUniverse and refuses, naming the item, every item at or past
// it, including those whose exclusive bound would wrap an int.
func TestCheckUniverseComparesItems(t *testing.T) {
	if err := cachesim.CheckUniverse(cachesim.MaxUniverse - 1); err != nil {
		t.Errorf("CheckUniverse(MaxUniverse-1) = %v, want nil", err)
	}
	for _, it := range []model.Item{cachesim.MaxUniverse, math.MaxInt64, 1 << 63, math.MaxUint64} {
		err := cachesim.CheckUniverse(it)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("item %d is outside the universe", it)) {
			t.Errorf("CheckUniverse(%d) = %v, want a refusal naming it", it, err)
		}
	}
}

// TestReplayScannerZeroAllocSteadyState pins the streaming memory budget:
// Replay over a binary trace.Scanner — scanner decode, policy access,
// recorder classification, context poll — must not allocate per
// request. The fixed overhead (scanner + bufio buffer per replay,
// recorder and bitset per Replay call) is tolerated, and the cache's
// arrays grow during AllocsPerRun's warm-up run; anything proportional
// to the trace would blow the bound.
func TestReplayScannerZeroAllocSteadyState(t *testing.T) {
	const universe = 512
	geo := model.NewFixed(8)
	tr, err := workload.FromSpec("blockruns:blocks=64,B=8,run=4,len=60000", 7)
	if err != nil {
		t.Fatal(err)
	}
	u := model.ItemUniverse(geo, tr.Universe())
	if u > universe {
		t.Fatalf("fixture universe %d grew past %d", u, universe)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	c := core.NewIBLPEvenSplit(128, geo)
	ctx := context.Background()
	rd := bytes.NewReader(raw)

	avg := testing.AllocsPerRun(10, func() {
		rd.Reset(raw)
		sc, err := trace.NewScanner(rd)
		if err != nil {
			t.Fatal(err)
		}
		c.Reset()
		st, err := cachesim.Replay(ctx, c, sc, cachesim.ReplayOptions{Universe: universe})
		if err != nil || st.Accesses != int64(len(tr)) {
			t.Fatalf("accesses=%d err=%v", st.Accesses, err)
		}
	})
	// Per-replay constant: scanner, bufio reader+buffer, recorder bitset.
	if avg > 12 {
		t.Errorf("streaming replay of %d accesses costs %.1f allocs, want a small constant (≤12): per-access path is allocating", len(tr), avg)
	}
}

// replay runs tr through c and fails the test on error.
func replay(t *testing.T, c cachesim.Cache, tr trace.Trace) cachesim.Stats {
	t.Helper()
	st, err := cachesim.Replay(context.Background(), c, trace.NewSliceSource(tr), cachesim.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReplayTextScanner checks the text scanner drives the engine the
// same way the binary one does.
func TestReplayTextScanner(t *testing.T) {
	geo := model.NewFixed(4)
	tr, err := workload.FromSpec("blockruns:blocks=32,B=4,run=3,len=5000", 3)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	want := replay(t, core.NewIBLPEvenSplit(64, geo), tr)
	got, err := cachesim.Replay(context.Background(), core.NewIBLPEvenSplit(64, geo), trace.NewTextScanner(&text), cachesim.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("text-streamed stats %+v != %+v", got, want)
	}
}

// TestReplaySourceError checks a failing source surfaces its error
// along with the statistics accumulated before the failure.
func TestReplaySourceError(t *testing.T) {
	tr := make(trace.Trace, 1000)
	for i := range tr {
		tr[i] = model.Item(i % 64)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-2]
	sc, err := trace.NewScanner(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	st, err := cachesim.Replay(context.Background(), policy.NewItemLRU(32), sc, cachesim.ReplayOptions{})
	if err == nil {
		t.Fatal("truncated stream replayed cleanly")
	}
	if st.Accesses == 0 || st.Accesses >= int64(len(tr)) {
		t.Errorf("partial stats cover %d accesses, want in (0, %d)", st.Accesses, len(tr))
	}
}
