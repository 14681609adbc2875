package concurrent

import (
	"bytes"
	"context"
	"testing"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

func batchFixture(t testing.TB, spec string, seed int64) trace.Trace {
	t.Helper()
	tr, err := workload.FromSpec(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// replayOnce replays streams through s on a throwaway Engine with one
// producer slot per non-empty stream.
func replayOnce(ctx context.Context, s *Sharded, streams []trace.Trace, cfg BatchConfig) (cachesim.Stats, error) {
	n := 0
	for _, st := range streams {
		if len(st) > 0 {
			n++
		}
	}
	e, err := NewEngine(s, max(n, 1), cfg)
	if err != nil {
		return cachesim.Stats{}, err
	}
	defer e.Close()
	return e.Replay(ctx, streams)
}

// replayStreamOnce replays src through s on a throwaway Engine.
func replayStreamOnce(ctx context.Context, s *Sharded, src trace.Source, cfg BatchConfig) (cachesim.Stats, error) {
	e, err := NewEngine(s, 1, cfg)
	if err != nil {
		return cachesim.Stats{}, err
	}
	defer e.Close()
	return e.ReplayStream(ctx, src)
}

// TestReplayCtxAccounting drives the batched engine with concurrent
// producers and checks the merged statistics add up.
func TestReplayCtxAccounting(t *testing.T) {
	s := newIBLPSharded(t, 8, 1024, 16)
	tr := batchFixture(t, "blockruns:blocks=256,B=16,run=8,len=80000", 5)
	st, err := replayOnce(context.Background(), s, SplitStreams(tr, 8), BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
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
	// Batching amortizes the shard lock: far fewer acquisitions than
	// accesses (each acquisition serves up to BatchSize requests).
	var acquired int64
	for _, l := range s.ShardLoads() {
		acquired += l.Acquired
	}
	if acquired >= st.Accesses/2 {
		t.Errorf("lock acquisitions %d not amortized over %d accesses", acquired, st.Accesses)
	}
}

// TestReplayCtxDeterministicDifferential is the engine's correctness
// anchor: a one-producer replay keeps each shard's subsequence in trace
// order and shards are independent, so Replay of a single stream and
// ReplayStream must both produce statistics byte-identical to driving
// Sharded.Access sequentially, however many producer slots the engine
// has.
func TestReplayCtxDeterministicDifferential(t *testing.T) {
	tr := batchFixture(t, "blockruns:blocks=128,B=8,run=4,len=40000", 9)

	seq := newIBLPSharded(t, 4, 512, 8)
	for _, it := range tr {
		seq.Access(it)
	}
	want := seq.Stats()

	for _, producers := range []int{1, 3} {
		batched := newIBLPSharded(t, 4, 512, 8)
		e, err := NewEngine(batched, producers, BatchConfig{BatchSize: 64, QueueDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		got, err := e.Replay(context.Background(), []trace.Trace{tr})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("one-stream Replay (%d producer slots) differs from sequential:\n  batched:    %+v\n  sequential: %+v",
				producers, got, want)
		}
		batched.Reset()
		got, err = e.ReplayStream(context.Background(), trace.NewSliceSource(tr))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("ReplayStream (%d producer slots) differs from sequential:\n  batched:    %+v\n  sequential: %+v",
				producers, got, want)
		}
	}
}

// TestReplayStreamCtxOrderPreservation checks the single-source batched
// path: one producer enqueues each shard's requests in trace order and
// one worker per shard preserves it, so even the fully concurrent
// replay is deterministic — byte-identical to a sequential replay of
// the same trace through an identical Sharded.
func TestReplayStreamCtxOrderPreservation(t *testing.T) {
	tr := batchFixture(t, "blockruns:blocks=256,B=16,run=8,len=60000", 13)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}

	seq := newIBLPSharded(t, 8, 1024, 16)
	for _, it := range tr {
		seq.Access(it)
	}
	want := seq.Stats()

	sc, err := trace.NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	batched := newIBLPSharded(t, 8, 1024, 16)
	got, err := replayStreamOnce(context.Background(), batched, sc, BatchConfig{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("streamed batched replay differs from sequential:\n  batched:    %+v\n  sequential: %+v", got, want)
	}
}

// TestReplayCtxCancel kills a batched replay mid-flight and checks the
// claimed-batch contract: ctx's error comes back, the statistics stay
// internally consistent, and the engine's goroutines all exit (the
// -race run would flag leaked workers touching freed shards).
func TestReplayCtxCancel(t *testing.T) {
	s := newIBLPSharded(t, 4, 512, 8)
	tr := batchFixture(t, "blockruns:blocks=256,B=8,run=4,len=400000", 3)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var st cachesim.Stats
	var err error
	go func() {
		defer close(done)
		st, err = replayOnce(ctx, s, SplitStreams(tr, 4), BatchConfig{BatchSize: 64, QueueDepth: 1})
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled replay did not return within 10s")
	}
	if err == nil {
		// The replay may legitimately finish before cancel lands on a
		// fast machine; only a completed replay may return nil.
		if st.Accesses != int64(len(tr)) {
			t.Fatalf("nil error but only %d/%d accesses replayed", st.Accesses, len(tr))
		}
		t.Skip("replay finished before cancellation landed")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Errorf("partial stats inconsistent: %+v", st)
	}
	if st.Accesses >= int64(len(tr)) {
		t.Errorf("cancelled replay claims all %d accesses", st.Accesses)
	}
}

// TestReplayCtxPreCancelled checks a context that is dead on arrival is
// reported as an error, not as a silently empty replay.
func TestReplayCtxPreCancelled(t *testing.T) {
	s := newIBLPSharded(t, 4, 512, 8)
	tr := batchFixture(t, "blockruns:blocks=64,B=8,run=4,len=20000", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := replayOnce(ctx, s, SplitStreams(tr, 4), BatchConfig{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sc := trace.NewSliceSource(tr)
	if _, err := replayStreamOnce(ctx, s, sc, BatchConfig{}); err != context.Canceled {
		t.Fatalf("stream err = %v, want context.Canceled", err)
	}
}

// TestReplayCtxBackpressureTinyQueues runs the engine at its most
// constrained — one-item batches through depth-1 queues, more producers
// than shards — where any flow-control bug deadlocks or drops requests.
func TestReplayCtxBackpressureTinyQueues(t *testing.T) {
	s := newIBLPSharded(t, 2, 256, 8)
	tr := batchFixture(t, "blockruns:blocks=64,B=8,run=4,len=30000", 7)
	st, err := replayOnce(context.Background(), s, SplitStreams(tr, 16),
		BatchConfig{BatchSize: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != int64(len(tr)) {
		t.Fatalf("accesses %d != %d", st.Accesses, len(tr))
	}
}

// TestReplayStreamCtxSourceError checks a mid-stream decode failure
// surfaces after the requests before it were replayed.
func TestReplayStreamCtxSourceError(t *testing.T) {
	tr := batchFixture(t, "blockruns:blocks=64,B=8,run=4,len=10000", 2)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := trace.NewScanner(bytes.NewReader(buf.Bytes()[:buf.Len()-2]))
	if err != nil {
		t.Fatal(err)
	}
	s := newIBLPSharded(t, 4, 512, 8)
	st, err := replayStreamOnce(context.Background(), s, sc, BatchConfig{})
	if err == nil {
		t.Fatal("truncated source replayed cleanly")
	}
	if st.Accesses == 0 {
		t.Error("no requests replayed before the decode error")
	}
}

// TestReplayEmptyStreams pins the SplitStreams guard and the Replay
// skip: more streams than requests must not fabricate empty streams or
// idle goroutines.
func TestReplayEmptyStreams(t *testing.T) {
	tr := trace.Trace{1, 2, 3}
	streams := SplitStreams(tr, 8)
	if len(streams) != 3 {
		t.Fatalf("SplitStreams(len 3, n=8) returned %d streams, want 3", len(streams))
	}
	for i, st := range streams {
		if len(st) == 0 {
			t.Fatalf("stream %d is empty", i)
		}
	}
	if got := SplitStreams(trace.Trace{}, 4); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("SplitStreams(empty, 4) = %v, want one empty stream", got)
	}

	// Replay with explicitly empty streams (bypassing the SplitStreams
	// guard) skips them instead of spawning no-op goroutines.
	s := newIBLPSharded(t, 2, 256, 8)
	st := replayUnbatched(s, []trace.Trace{{}, tr, {}, {}})
	if st.Accesses != int64(len(tr)) {
		t.Fatalf("accesses %d != %d", st.Accesses, len(tr))
	}
	if _, err := replayOnce(context.Background(), s, []trace.Trace{{}, {}}, BatchConfig{}); err != nil {
		t.Fatalf("all-empty batched replay errored: %v", err)
	}
}

// BenchmarkReplayBatched measures the batched engine end to end —
// the ns/op ÷ trace length is the per-access serving cost.
func BenchmarkReplayBatched(b *testing.B) {
	geo := model.NewFixed(64)
	s, err := NewSharded(16, 1<<14, geo, func(per int) cachesim.Cache {
		return core.NewIBLPEvenSplit(per, geo)
	})
	if err != nil {
		b.Fatal(err)
	}
	tr := batchFixture(b, "blockruns:blocks=1024,B=64,run=8,len=262144", 3)
	streams := SplitStreams(tr, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replayOnce(context.Background(), s, streams, BatchConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr))*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkReplayUnbatched is the per-access-lock baseline the batched
// engine is measured against.
func BenchmarkReplayUnbatched(b *testing.B) {
	geo := model.NewFixed(64)
	s, err := NewSharded(16, 1<<14, geo, func(per int) cachesim.Cache {
		return core.NewIBLPEvenSplit(per, geo)
	})
	if err != nil {
		b.Fatal(err)
	}
	tr := batchFixture(b, "blockruns:blocks=1024,B=64,run=8,len=262144", 3)
	streams := SplitStreams(tr, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayUnbatched(s, streams)
	}
	b.ReportMetric(float64(len(tr))*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}
