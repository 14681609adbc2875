package gccache_test

import (
	"context"
	"testing"

	"gccache"
	"gccache/internal/model"
	"gccache/internal/workload"
)

func runTraceWorkload(b *testing.B) (*model.Fixed, gccache.Trace) {
	b.Helper()
	g := model.NewFixed(64)
	tr, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 4096, BlockSize: 64, MeanRunLength: 8,
		ZipfS: 1.2, Length: 1 << 16, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g, tr
}

// BenchmarkRunTrace measures the end-to-end trace-replay hot path — policy
// access, recorder classification, and net-change reconciliation — by
// replaying one BlockRuns trace per iteration through the even-split IBLP
// on the dense (bounded-universe) path. BENCH_baseline.json keeps the
// pre-optimization number under "pre_change" for the trajectory.
func BenchmarkRunTrace(b *testing.B) {
	g, tr := runTraceWorkload(b)
	u := model.ItemUniverse(g, tr.Universe())
	c := gccache.NewIBLPEvenSplitBounded(4096, g, u)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayCold(b, c, tr, u)
	}
}

// replayCold resets c and replays tr through it, failing the benchmark
// on an error or an implausible miss-free run.
func replayCold(b *testing.B, c gccache.Cache, tr gccache.Trace, universe int) {
	c.Reset()
	st, err := gccache.Replay(context.Background(), c, gccache.NewSliceSource(tr), gccache.ReplayOptions{Universe: universe})
	if err != nil || st.Misses == 0 {
		b.Fatalf("implausible replay: %+v, err = %v", st, err)
	}
}

// BenchmarkRunTraceGeneric is the same replay on the generic (map-backed)
// representation — the permanent reference point for the dense path's
// speedup, so the comparison stays reproducible on any machine.
func BenchmarkRunTraceGeneric(b *testing.B) {
	g, tr := runTraceWorkload(b)
	c := gccache.NewIBLPEvenSplit(4096, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayCold(b, c, tr, 0)
	}
}

// BenchmarkSweep measures the chunked work-stealing sweep engine on a
// 64-point grid, one pooled dense IBLP per worker reused (Reset before
// each replay) across every point the worker claims.
func BenchmarkSweep(b *testing.B) {
	g, tr := runTraceWorkload(b)
	u := model.ItemUniverse(g, tr.Universe())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gccache.Sweep(context.Background(), 64, gccache.SweepOptions{}, func() gccache.Cache {
			return gccache.NewIBLPEvenSplitBounded(4096, g, u)
		}, func(pt int, c gccache.Cache) {
			replayCold(b, c, tr, u)
		})
	}
}
