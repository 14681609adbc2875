package concurrent

import (
	"context"
	"sync"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/policy"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// replayUnbatched drives the sharded cache with one goroutine per
// non-empty stream and one lock acquisition per access, and returns the
// merged statistics. Streams interleave nondeterministically, as real
// concurrent clients would. It is the reference the Engine's
// differential tests and benchmarks compare against.
func replayUnbatched(s *Sharded, streams []trace.Trace) cachesim.Stats {
	var wg sync.WaitGroup
	for _, st := range streams {
		if len(st) == 0 {
			continue
		}
		wg.Add(1)
		go func(tr trace.Trace) {
			defer wg.Done()
			for _, it := range tr {
				s.Access(it)
			}
		}(st)
	}
	wg.Wait()
	return s.Stats()
}

func newIBLPSharded(t *testing.T, shards, total, B int) *Sharded {
	t.Helper()
	geo := model.NewFixed(B)
	s, err := NewSharded(shards, total, geo, func(per int) cachesim.Cache {
		return core.NewIBLPEvenSplit(per, geo)
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewShardedValidation(t *testing.T) {
	geo := model.NewFixed(4)
	build := func(per int) cachesim.Cache { return policy.NewItemLRU(per) }
	if _, err := NewSharded(3, 64, geo, build); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewSharded(0, 64, geo, build); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewSharded(8, 4, geo, build); err == nil {
		t.Error("capacity below shard count accepted")
	}
	if _, err := NewSharded(2, 64, nil, build); err == nil {
		t.Error("nil geometry accepted")
	}
	if _, err := NewSharded(2, 64, geo, func(int) cachesim.Cache { return nil }); err == nil {
		t.Error("nil shard cache accepted")
	}
}

func TestBlockSiblingsShareShard(t *testing.T) {
	s := newIBLPSharded(t, 8, 512, 16)
	for blk := 0; blk < 200; blk++ {
		base := model.Item(blk * 16)
		want := s.shardOf(base)
		for off := 1; off < 16; off++ {
			if got := s.shardOf(base + model.Item(off)); got != want {
				t.Fatalf("block %d split across shards", blk)
			}
		}
	}
}

func TestSingleShardMatchesFlatPolicy(t *testing.T) {
	geo := model.NewFixed(8)
	s, err := NewSharded(1, 64, geo, func(per int) cachesim.Cache {
		return core.NewIBLPEvenSplit(per, geo)
	})
	if err != nil {
		t.Fatal(err)
	}
	flat := core.NewIBLPEvenSplit(64, geo)
	tr, err := workload.FromSpec("blockruns:blocks=32,B=8,run=4,len=20000", 9)
	if err != nil {
		t.Fatal(err)
	}
	got := replay(t, s, tr)
	want := replay(t, flat, tr)
	if got.Misses != want.Misses || got.SpatialHits != want.SpatialHits {
		t.Errorf("sharded(1) %+v != flat %+v", got, want)
	}
	// Internal recorder agrees with the external one.
	if st := s.Stats(); st.Misses != got.Misses {
		t.Errorf("internal stats misses %d != %d", st.Misses, got.Misses)
	}
}

func TestConcurrentReplayAccounting(t *testing.T) {
	s := newIBLPSharded(t, 8, 1024, 16)
	tr, err := workload.FromSpec("blockruns:blocks=256,B=16,run=8,len=80000", 5)
	if err != nil {
		t.Fatal(err)
	}
	streams := SplitStreams(tr, 8)
	st := replayUnbatched(s, streams)
	if st.Accesses != int64(len(tr)) {
		t.Fatalf("accesses %d != %d", st.Accesses, len(tr))
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits %d + misses %d != accesses %d", st.Hits, st.Misses, st.Accesses)
	}
	if st.SpatialHits+st.TemporalHits != st.Hits {
		t.Fatalf("hit split inconsistent: %+v", st)
	}
	if s.Len() > s.Capacity() {
		t.Fatalf("Len %d > Capacity %d", s.Len(), s.Capacity())
	}
	if st.SpatialHits == 0 {
		t.Error("spatial workload produced no spatial hits")
	}
}

func TestConcurrentHammerSameBlocks(t *testing.T) {
	// Many goroutines hammering a tiny universe: exercises shard mutex
	// paths under contention (run with -race in CI).
	s := newIBLPSharded(t, 4, 256, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				s.Access(model.Item((i*7 + seed) % 64))
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Accesses != 16*5000 {
		t.Fatalf("accesses = %d", st.Accesses)
	}
	s.Reset()
	if s.Stats().Accesses != 0 || s.Len() != 0 {
		t.Error("Reset")
	}
}

func TestShardedConformsToModel(t *testing.T) {
	// Single-threaded, the sharded composite is itself a legal GC cache.
	geo := model.NewFixed(8)
	s, err := NewSharded(4, 128, geo, func(per int) cachesim.Cache {
		return core.NewIBLPEvenSplit(per, geo)
	})
	if err != nil {
		t.Fatal(err)
	}
	v := cachesim.NewValidator(s, geo)
	tr, err := workload.FromSpec("blockruns:blocks=64,B=8,run=4,len=10000", 2)
	if err != nil {
		t.Fatal(err)
	}
	replay(t, v, tr)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitStreams(t *testing.T) {
	tr := trace.Trace{1, 2, 3, 4, 5}
	streams := SplitStreams(tr, 2)
	if len(streams) != 2 || len(streams[0]) != 3 || len(streams[1]) != 2 {
		t.Fatalf("streams = %v", streams)
	}
	if streams[0][0] != 1 || streams[1][0] != 2 {
		t.Errorf("round robin broken: %v", streams)
	}
	if got := SplitStreams(tr, 0); len(got) != 1 {
		t.Error("n=0 not clamped")
	}
}

func TestNameAndNumShards(t *testing.T) {
	s := newIBLPSharded(t, 4, 128, 8)
	if s.NumShards() != 4 {
		t.Error("NumShards")
	}
	if s.Name() == "" {
		t.Error("Name")
	}
}

func BenchmarkShardedParallelAccess(b *testing.B) {
	geo := model.NewFixed(64)
	s, err := NewSharded(16, 1<<14, geo, func(per int) cachesim.Cache {
		return core.NewIBLPEvenSplit(per, geo)
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.FromSpec("blockruns:blocks=1024,B=64,run=8,len=65536", 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Access(tr[i&65535])
			i++
		}
	})
}

func BenchmarkFlatMutexAccess(b *testing.B) {
	// Baseline for the sharding win: one global lock around one policy.
	geo := model.NewFixed(64)
	flat := core.NewIBLPEvenSplit(1<<14, geo)
	var mu sync.Mutex
	tr, err := workload.FromSpec("blockruns:blocks=1024,B=64,run=8,len=65536", 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			mu.Lock()
			flat.Access(tr[i&65535])
			mu.Unlock()
			i++
		}
	})
}

// TestProbeShardedContention drives a probed Sharded with concurrent
// streams and checks the lock-traffic counters and the fan-out probe
// agree with the merged statistics.
func TestProbeShardedContention(t *testing.T) {
	geo := model.NewFixed(8)
	s, err := NewSharded(4, 512, geo, func(per int) cachesim.Cache {
		return core.NewIBLPEvenSplit(per, geo)
	})
	if err != nil {
		t.Fatal(err)
	}
	suite, err := obs.NewSuite("counters")
	if err != nil {
		t.Fatal(err)
	}
	s.SetProbe(suite)

	tr, err := workload.FromSpec("blockruns:blocks=512,B=8,run=4,len=20000", 7)
	if err != nil {
		t.Fatal(err)
	}
	stats := replayUnbatched(s, SplitStreams(tr, 4))

	loads := s.ShardLoads()
	if len(loads) != 4 {
		t.Fatalf("got %d shard loads, want 4", len(loads))
	}
	var acquired int64
	for i, l := range loads {
		acquired += l.Acquired
		if l.Contended > l.Acquired {
			t.Errorf("shard %d: contended %d > acquired %d", i, l.Contended, l.Acquired)
		}
	}
	if acquired != stats.Accesses {
		t.Errorf("lock acquisitions %d != accesses %d", acquired, stats.Accesses)
	}
	// Policy and recorder views each saw every access exactly once.
	if got := suite.Counters.PolicyAccesses(); got != stats.Accesses {
		t.Errorf("policy view counted %d, want %d", got, stats.Accesses)
	}
	if got := suite.Counters.RecorderAccesses(); got != stats.Accesses {
		t.Errorf("recorder view counted %d, want %d", got, stats.Accesses)
	}

	// Reset keeps the probe attached and zeroes the counters.
	s.Reset()
	for _, l := range s.ShardLoads() {
		if l.Acquired != 0 || l.Contended != 0 {
			t.Error("Reset did not clear contention counters")
		}
	}
	before := suite.Counters.PolicyAccesses()
	s.Access(1)
	if got := suite.Counters.PolicyAccesses(); got != before+1 {
		t.Error("probe detached by Reset")
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
