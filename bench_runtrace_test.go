package gccache_test

import (
	"context"
	"path/filepath"
	"testing"

	"gccache"
	"gccache/internal/model"
	"gccache/internal/scenario"
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
// access, recorder classification, and net-change bookkeeping — by
// replaying one BlockRuns trace per iteration through the even-split
// IBLP with the trace's universe declared. One untimed replay first grows
// the cache's arrays. BENCH_baseline.json keeps the pre-optimization
// number under "pre_change" for the trajectory.
func BenchmarkRunTrace(b *testing.B) {
	g, tr := runTraceWorkload(b)
	u := model.ItemUniverse(g, tr.Universe())
	c := gccache.NewIBLPEvenSplit(4096, g)
	replayCold(b, c, tr, u)
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

// BenchmarkReplayProbed measures what probes add to a replay: the
// even-split IBLP (k = 4096, B = 64) replays drift.gcs and
// storage-server.gcs, each compiled at seed 1, cold per iteration with
// no probe, with the counters suite and with the "all" suite. Each case
// builds its suite once, so its tables grow in the untimed first
// replay; ns/req divides the time by the requests replayed.
func BenchmarkReplayProbed(b *testing.B) {
	g := model.NewFixed(64)
	for _, name := range []string{"drift", "storage-server"} {
		p, _, err := scenario.Load(filepath.Join("scenarios", name+".gcs"))
		if err != nil {
			b.Fatal(err)
		}
		tr, err := scenario.Trace(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, spec := range []string{"none", "counters", "all"} {
			b.Run(name+"/"+spec, func(b *testing.B) {
				var opt gccache.ReplayOptions
				if spec != "none" {
					suite, err := gccache.NewProbeSuite(spec)
					if err != nil {
						b.Fatal(err)
					}
					opt.Probe = suite
				}
				c := gccache.NewIBLPEvenSplit(4096, g)
				replay := func() {
					c.Reset()
					if _, err := gccache.Replay(context.Background(), c, gccache.NewSliceSource(tr), opt); err != nil {
						b.Fatal(err)
					}
				}
				replay()
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					replay()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/req")
			})
		}
	}
}

// BenchmarkRunTraceUndeclared is the same replay with no declared
// universe, so each replay's Recorder starts empty and grows its
// pristine set as items arrive.
func BenchmarkRunTraceUndeclared(b *testing.B) {
	g, tr := runTraceWorkload(b)
	c := gccache.NewIBLPEvenSplit(4096, g)
	replayCold(b, c, tr, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayCold(b, c, tr, 0)
	}
}

// BenchmarkSweep measures the chunked work-stealing sweep engine on a
// 64-point grid, one pooled IBLP per worker reused (Reset before each
// replay) across every point the worker claims; each grows its arrays
// on its first point.
func BenchmarkSweep(b *testing.B) {
	g, tr := runTraceWorkload(b)
	u := model.ItemUniverse(g, tr.Universe())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gccache.Sweep(context.Background(), 64, gccache.SweepOptions{}, func() gccache.Cache {
			return gccache.NewIBLPEvenSplit(4096, g)
		}, func(pt int, c gccache.Cache) {
			replayCold(b, c, tr, u)
		})
	}
}
