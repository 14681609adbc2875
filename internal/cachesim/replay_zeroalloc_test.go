package cachesim

import (
	"context"
	"testing"

	"gccache/internal/model"
	"gccache/internal/trace"
)

// hitCache hits every access without touching any slices — the
// minimal zero-allocation Cache for isolating runner overhead.
type hitCache struct{}

func (hitCache) Name() string             { return "hit" }
func (hitCache) Access(model.Item) Access { return Access{Hit: true} }
func (hitCache) Contains(model.Item) bool { return true }
func (hitCache) Len() int                 { return 0 }
func (hitCache) Capacity() int            { return 1 }
func (hitCache) Reset()                   {}

// rewindSource is a resettable Source that is not a *trace.SliceSource,
// so Replay drives it through the generic loop.
type rewindSource struct {
	tr trace.Trace
	i  int
}

func (s *rewindSource) Next() bool       { s.i++; return s.i <= len(s.tr) }
func (s *rewindSource) Item() model.Item { return s.tr[s.i-1] }
func (s *rewindSource) Err() error       { return nil }

// zeroAllocTrace is a 4*cancelStride-request trace over a 256-item
// universe, so every replay crosses several context polls.
func zeroAllocTrace() (trace.Trace, int) {
	const universe = 256
	tr := make(trace.Trace, 4*cancelStride)
	for i := range tr {
		tr[i] = model.Item(i % universe)
	}
	return tr, universe
}

// assertLoopZeroAlloc warms loop up once, then fails unless a replay of
// n requests through it allocates nothing.
func assertLoopZeroAlloc(t *testing.T, name string, rec *Recorder, n int, loop func() (Stats, error)) {
	t.Helper()
	if _, err := loop(); err != nil { // warm-up
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		rec.Reset("hit")
		if st, err := loop(); err != nil || st.Accesses != int64(n) {
			t.Fatalf("%s: accesses=%d err=%v", name, st.Accesses, err)
		}
	}); avg != 0 {
		t.Errorf("%s loop allocates %.2f allocs per %d-request replay, want 0", name, avg, n)
	}
}

// TestReplaySliceZeroAllocSteadyState pins the fault-tolerance contract
// that cancellation support stays off the hot path of an in-memory
// trace replay: Replay's *trace.SliceSource loop — chunks taken from the
// source, universe check, policy access, recorder classification,
// context poll before each cancelStride-request chunk — must not
// allocate. A regression here would show up as allocations
// proportional to trace length.
func TestReplaySliceZeroAllocSteadyState(t *testing.T) {
	tr, universe := zeroAllocTrace()
	rec := NewRecorder("hit", universe)
	ctx := context.Background()
	var c hitCache
	assertLoopZeroAlloc(t, "slice", rec, len(tr), func() (Stats, error) {
		return replaySlice(ctx, c, trace.NewSliceSource(tr), rec, universe)
	})
}

// TestReplayZeroAllocSteadyState pins the same per-request budget on
// Replay's generic trace.Source loop, and bounds what the public entry
// point may add on top of either loop: only its per-call constant.
func TestReplayZeroAllocSteadyState(t *testing.T) {
	tr, universe := zeroAllocTrace()
	rec := NewRecorder("hit", universe)
	ctx := context.Background()
	var c hitCache
	src := &rewindSource{tr: tr}
	assertLoopZeroAlloc(t, "source", rec, len(tr), func() (Stats, error) {
		src.i = 0
		return replaySource(ctx, c, src, rec, universe)
	})
	// The public entry point: recorder, bitset and the escaping slice
	// source are its per-call constant.
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := Replay(ctx, c, trace.NewSliceSource(tr), ReplayOptions{Universe: universe}); err != nil {
			t.Fatal(err)
		}
	}); avg > 3 {
		t.Errorf("Replay of %d requests costs %.1f allocs, want ≤ 3", len(tr), avg)
	}
}
