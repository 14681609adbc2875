package concurrent

import (
	"context"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/trace"
)

// --- SPSC ring primitive ---

// TestRingWraparound pushes and pops across many multiples of the
// capacity so the monotonic head/tail indices exercise the mask-based
// wrap, including a non-power-of-two requested capacity.
func TestRingWraparound(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 8} {
		var r batchRing
		r.init(capacity)
		if n := len(r.slots); n&(n-1) != 0 || n < capacity {
			t.Fatalf("init(%d): %d slots, want power of two >= capacity", capacity, n)
		}
		next := uint64(0) // next value expected out
		sent := uint64(0)
		for round := 0; round < 6*len(r.slots)+3; round++ {
			// Fill completely, then drain completely, shifting phase by
			// one each round so every slot sees every head/tail offset.
			for r.push([]model.Item{model.Item(sent)}) {
				sent++
			}
			for {
				b, ok := r.pop()
				if !ok {
					break
				}
				if len(b) != 1 || b[0] != model.Item(next) {
					t.Fatalf("capacity %d: popped %v, want [%d]", capacity, b, next)
				}
				next++
			}
			if next != sent {
				t.Fatalf("capacity %d: drained %d, pushed %d", capacity, next, sent)
			}
			// Re-seed one element so the next round starts offset by one.
			if r.push([]model.Item{model.Item(sent)}) {
				sent++
			}
		}
	}
}

// TestRingFullBackpressure pins the full/empty boundary conditions:
// exactly cap pushes succeed, the cap+1st fails, and one pop reopens
// exactly one slot.
func TestRingFullBackpressure(t *testing.T) {
	var r batchRing
	r.init(4)
	if !r.empty() {
		t.Fatal("fresh ring not empty")
	}
	for i := 0; i < 4; i++ {
		if !r.push([]model.Item{model.Item(i)}) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	if r.push([]model.Item{99}) {
		t.Fatal("push succeeded on a full ring")
	}
	if b, ok := r.pop(); !ok || b[0] != 0 {
		t.Fatalf("pop = %v, %v; want [0], true", b, ok)
	}
	if !r.push([]model.Item{4}) {
		t.Fatal("push refused after a pop freed a slot")
	}
	if r.push([]model.Item{99}) {
		t.Fatal("second push succeeded with only one slot freed")
	}
	for want := 1; want <= 4; want++ {
		b, ok := r.pop()
		if !ok || b[0] != model.Item(want) {
			t.Fatalf("pop = %v, %v; want [%d], true (FIFO order)", b, ok, want)
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop succeeded on an empty ring")
	}
	if !r.empty() {
		t.Fatal("drained ring not empty")
	}
}

// TestRingConcurrentSPSC runs one pusher against one popper under the
// race detector: every batch must arrive exactly once, in order, with
// its contents visible (the release/acquire hand-off).
func TestRingConcurrentSPSC(t *testing.T) {
	var r batchRing
	r.init(4)
	const n = 20000
	done := make(chan error, 1)
	go func() {
		var w spinWait
		for i := uint64(0); i < n; {
			if r.push([]model.Item{model.Item(i), model.Item(i * 2)}) {
				i++
				w.reset()
				continue
			}
			w.wait()
		}
		done <- nil
	}()
	var w spinWait
	for i := uint64(0); i < n; {
		b, ok := r.pop()
		if !ok {
			w.wait()
			continue
		}
		if len(b) != 2 || b[0] != model.Item(i) || b[1] != model.Item(i*2) {
			t.Fatalf("batch %d: got %v", i, b)
		}
		i++
		w.reset()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !r.empty() {
		t.Fatal("ring not empty after all batches consumed")
	}
}

// --- persistent Engine ---

// TestEngineReuseAcrossReplays checks the persistent engine's whole
// point: many replays over one engine, with exact accounting each time
// and no cross-replay leakage of counters.
func TestEngineReuseAcrossReplays(t *testing.T) {
	s := newIBLPSharded(t, 8, 1024, 16)
	tr := batchFixture(t, "blockruns:blocks=256,B=16,run=8,len=40000", 21)
	streams := SplitStreams(tr, 8)
	e, err := NewEngine(s, len(streams), BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for round := 1; round <= 5; round++ {
		st, err := e.Replay(context.Background(), streams)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st.Accesses != int64(round*len(tr)) {
			t.Fatalf("round %d: accesses %d, want %d", round, st.Accesses, round*len(tr))
		}
		if st.Hits+st.Misses != st.Accesses {
			t.Fatalf("round %d: inconsistent stats %+v", round, st)
		}
	}
}

// TestEngineDeterministicReuse replays one stream repeatedly on one
// engine with a Reset between rounds, alternating Replay and
// ReplayStream: every round must reproduce the sequential replay byte
// for byte.
func TestEngineDeterministicReuse(t *testing.T) {
	tr := batchFixture(t, "blockruns:blocks=128,B=8,run=4,len=30000", 23)

	seq := newIBLPSharded(t, 4, 512, 8)
	for _, it := range tr {
		seq.Access(it)
	}
	want := seq.Stats()

	s := newIBLPSharded(t, 4, 512, 8)
	e, err := NewEngine(s, 1, BatchConfig{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for round := 0; round < 4; round++ {
		s.Reset()
		var got cachesim.Stats
		if round%2 == 0 {
			got, err = e.Replay(context.Background(), []trace.Trace{tr})
		} else {
			got, err = e.ReplayStream(context.Background(), trace.NewSliceSource(tr))
		}
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: one-producer replay diverged:\n  got:  %+v\n  want: %+v", round, got, want)
		}
	}
}

// TestEngineCancelThenReuse cancels a replay on a persistent engine
// with the tiniest possible rings — producers blocked on full rings
// while the context dies — and then runs a clean replay on the same
// engine. Cancellation must neither wedge the engine nor corrupt the
// next replay's accounting, and Close must return with rings fully
// drained.
func TestEngineCancelThenReuse(t *testing.T) {
	s := newIBLPSharded(t, 4, 512, 8)
	tr := batchFixture(t, "blockruns:blocks=256,B=8,run=4,len=200000", 27)
	streams := SplitStreams(tr, 4)
	e, err := NewEngine(s, len(streams), BatchConfig{BatchSize: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead on arrival: every producer sees a full-or-cancelled world
	st, err := e.Replay(ctx, streams)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("partial stats inconsistent: %+v", st)
	}
	replayed := st.Accesses

	got, err := e.Replay(context.Background(), streams)
	if err != nil {
		t.Fatalf("clean replay after cancellation: %v", err)
	}
	if got.Accesses != replayed+int64(len(tr)) {
		t.Fatalf("accesses %d after reuse, want %d", got.Accesses, replayed+int64(len(tr)))
	}
	for p := range e.lanes {
		for w := range e.lanes[p] {
			if !e.lanes[p][w].data.empty() {
				t.Fatalf("lane [%d][%d] not drained after replays", p, w)
			}
		}
	}
}

// TestEngineMisuse pins the guard rails: replay on a closed engine,
// overlapping replays, and bad construction arguments all error
// instead of corrupting state.
func TestEngineMisuse(t *testing.T) {
	s := newIBLPSharded(t, 2, 256, 8)
	if _, err := NewEngine(nil, 1, BatchConfig{}); err == nil {
		t.Error("NewEngine(nil, ...) succeeded")
	}
	if _, err := NewEngine(s, 0, BatchConfig{}); err == nil {
		t.Error("NewEngine(s, 0, ...) succeeded")
	}
	e, err := NewEngine(s, 1, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // second Close is a no-op
	if _, err := e.Replay(context.Background(), nil); err == nil {
		t.Error("Replay on a closed engine succeeded")
	}
}

// cancelAfterSource emits sequential items and cancels a context after
// the k-th emission — a deterministic way to land a cancellation at an
// exact point in the produce/route/consume interleaving.
type cancelAfterSource struct {
	n, emitted int
	cancelAt   int
	cancel     context.CancelFunc
	universe   int
	cur        model.Item
}

func (c *cancelAfterSource) Next() bool {
	if c.emitted >= c.n {
		return false
	}
	c.cur = model.Item(c.emitted % c.universe)
	c.emitted++
	if c.emitted == c.cancelAt && c.cancel != nil {
		c.cancel()
	}
	return true
}

func (c *cancelAfterSource) Item() model.Item { return c.cur }
func (c *cancelAfterSource) Err() error       { return nil }

// FuzzReplayInterleaved fuzzes the engine over interleaved
// produce/consume/cancel sequences: trace length, batch size, queue
// depth, shard count, and the exact request after which the context is
// cancelled are all fuzzed, and the engine must preserve its two
// invariants — err == nil iff every request was replayed, and the
// statistics internally consistent either way. Run it under -race for
// the interleaving coverage the seed corpus alone cannot give.
func FuzzReplayInterleaved(f *testing.F) {
	f.Add(uint16(1000), uint8(4), uint8(1), uint8(2), uint16(500))
	f.Add(uint16(5000), uint8(1), uint8(1), uint8(1), uint16(0))
	f.Add(uint16(3000), uint8(64), uint8(4), uint8(8), uint16(2999))
	f.Add(uint16(256), uint8(255), uint8(8), uint8(4), uint16(1))
	f.Fuzz(func(t *testing.T, n uint16, batch, depth, shardsRaw uint8, cancelAt uint16) {
		shards := 1 << (shardsRaw % 4) // 1, 2, 4, 8
		geo := model.NewFixed(8)
		s, err := NewSharded(shards, 64*shards, geo, func(per int) cachesim.Cache {
			return core.NewIBLPEvenSplit(per, geo)
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &cancelAfterSource{
			n:        int(n),
			cancelAt: int(cancelAt),
			universe: 4096,
		}
		if cancelAt > 0 && int(cancelAt) <= int(n) {
			src.cancel = cancel
		}
		st, err := replayStreamOnce(ctx, s, src,
			BatchConfig{BatchSize: int(batch), QueueDepth: int(depth)})
		if st.Hits+st.Misses != st.Accesses {
			t.Fatalf("inconsistent stats: %+v", st)
		}
		if st.SpatialHits+st.TemporalHits != st.Hits {
			t.Fatalf("inconsistent hit split: %+v", st)
		}
		if err == nil && st.Accesses != int64(src.emitted) {
			t.Fatalf("err == nil but %d/%d requests replayed", st.Accesses, src.emitted)
		}
		if st.Accesses > int64(src.emitted) {
			t.Fatalf("replayed %d > emitted %d", st.Accesses, src.emitted)
		}
	})
}

// TestReplayEngineZeroAllocSteadyState proves the acceptance criterion
// directly: a warm engine over a sharded cache replays with zero
// allocations per run.
func TestReplayEngineZeroAllocSteadyState(t *testing.T) {
	geo := model.NewFixed(16)
	tr := batchFixture(t, "blockruns:blocks=256,B=16,run=8,len=20000", 31)
	s, err := NewSharded(8, 1024, geo, func(per int) cachesim.Cache {
		return core.NewIBLPEvenSplit(per, geo)
	})
	if err != nil {
		t.Fatal(err)
	}
	streams := SplitStreams(tr, 8)
	e, err := NewEngine(s, len(streams), BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	// Warm up: populate the free rings and any lazily sized stats scratch.
	if _, err := e.Replay(ctx, streams); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := e.Replay(ctx, streams); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Engine.Replay allocates %.1f times per replay, want 0", allocs)
	}
}

// --- per-stage benchmarks: ring-only, routing-only, end-to-end ---

// BenchmarkRingPushPop isolates the SPSC primitive: one push + one pop
// per iteration on a single goroutine (no contention, no policy work).
func BenchmarkRingPushPop(b *testing.B) {
	var r batchRing
	r.init(4)
	batch := make([]model.Item, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.push(batch)
		r.pop()
	}
}

// nopCache is a policy-free cachesim.Cache: every access is a miss with
// no loads and no evictions, so an engine over it measures pure serving
// overhead (routing, rings, locks) with the policy cost subtracted.
type nopCache struct{}

func (nopCache) Name() string                      { return "nop" }
func (nopCache) Access(model.Item) cachesim.Access { return cachesim.Access{} }
func (nopCache) Contains(model.Item) bool          { return false }
func (nopCache) Len() int                          { return 0 }
func (nopCache) Capacity() int                     { return 1 }
func (nopCache) Reset()                            {}

// BenchmarkRouteOnly measures the routing stage: counting-sort
// partition plus ring traffic into workers serving a no-op policy. The
// gap to BenchmarkEngineReplay is the policy cost; the gap from
// BenchmarkRingPushPop is the partition + scheduling cost.
func BenchmarkRouteOnly(b *testing.B) {
	geo := model.NewFixed(16)
	s, err := NewSharded(8, 1024, geo, func(int) cachesim.Cache { return nopCache{} })
	if err != nil {
		b.Fatal(err)
	}
	tr := batchFixture(b, "blockruns:blocks=256,B=16,run=8,len=65536", 3)
	streams := SplitStreams(tr, 8)
	e, err := NewEngine(s, len(streams), BatchConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
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

// BenchmarkEngineReplay is the end-to-end stage: a warm persistent
// engine serving the IBLP policy — the in-package
// counterpart of the root BenchmarkReplayThroughput.
func BenchmarkEngineReplay(b *testing.B) {
	geo := model.NewFixed(16)
	tr := batchFixture(b, "blockruns:blocks=256,B=16,run=8,len=65536", 3)
	s, err := NewSharded(8, 1024, geo, func(per int) cachesim.Cache {
		return core.NewIBLPEvenSplit(per, geo)
	})
	if err != nil {
		b.Fatal(err)
	}
	streams := SplitStreams(tr, 8)
	e, err := NewEngine(s, len(streams), BatchConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
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

var _ trace.Source = (*cancelAfterSource)(nil)
