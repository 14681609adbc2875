package gccache_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"gccache"
	"gccache/internal/model"
)

// BenchmarkRunStream measures the streaming replay path end to end —
// binary varint decode, policy access, recorder — off an
// in-memory encoding of the BlockRuns trace, so the number is the
// decode+replay cost with no file-system noise. The slice-path
// counterpart is BenchmarkRunTrace; the gap between them is the price
// of O(1)-memory ingestion.
func BenchmarkRunStream(b *testing.B) {
	g, tr := runTraceWorkload(b)
	u := model.ItemUniverse(g, tr.Universe())
	c := gccache.NewIBLPEvenSplit(4096, g)
	replayCold(b, c, tr, u)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := gccache.NewTraceScanner(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		c.Reset()
		st, err := gccache.Replay(context.Background(), c, sc, gccache.ReplayOptions{Universe: u})
		if err != nil {
			b.Fatal(err)
		}
		if st.Misses == 0 {
			b.Fatal("implausible: zero misses")
		}
	}
}

// replayThroughput measures a warm persistent ReplayEngine over the
// BlockRuns trace split into nStreams streams on an nShards-shard
// cache. The engine, cache, rings, and batch buffers are all built
// before the timer starts, so the steady-state loop is the pure serving
// cost: SPSC ring hand-off, counting-sort routing, one lock acquisition
// per batch, policy access.
func replayThroughput(b *testing.B, nShards, nStreams int) {
	g, tr := runTraceWorkload(b)
	streams := gccache.SplitStreams(tr, nStreams)
	s, err := gccache.NewShardedCache(nShards, 4096, g, func(k int) gccache.Cache {
		return gccache.NewIBLPEvenSplit(k, g)
	})
	if err != nil {
		b.Fatal(err)
	}
	e, err := gccache.NewReplayEngine(s, nStreams, gccache.BatchReplayConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	// One warmup replay primes the free rings with recycled batch
	// buffers and grows the caches' and recorders' arrays; everything
	// after it is allocation-free.
	if _, err := e.Replay(ctx, streams); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Replay(ctx, streams); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr))*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkReplayThroughput measures the batched sharded serving engine
// (gcload's batch mode) at its standard operating point — 8 shards, 8
// producer streams. The ops/sec metric is the throughput figure
// BENCH_baseline.json tracks across PRs and the bench-floor CI guard
// enforces.
func BenchmarkReplayThroughput(b *testing.B) {
	replayThroughput(b, 8, 8)
}

// BenchmarkReplayThroughputParallel sweeps the shard count so the
// scaling curve — not just the 8-shard point — is tracked in
// BENCH_baseline.json. {1, 4, 16} bracket the standard point;
// GOMAXPROCS is included (deduplicated) because it is the hardware
// operating point the engine actually runs at in production.
func BenchmarkReplayThroughputParallel(b *testing.B) {
	shardCounts := []int{1, 4, 16}
	gmp := 1
	for gmp < runtime.GOMAXPROCS(0) {
		gmp <<= 1 // shard counts must be powers of two
	}
	seen := map[int]bool{1: true, 4: true, 16: true}
	if !seen[gmp] {
		shardCounts = append(shardCounts, gmp)
	}
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			replayThroughput(b, n, 8)
		})
	}
}
