package cachesim

import (
	"context"
	"fmt"
	"os"

	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/trace"
)

// ReplayOptions configures Replay. The zero value replays with no probe
// and refuses items ≥ MaxUniverse.
type ReplayOptions struct {
	// Universe > 0 declares the requested item IDs to lie in
	// [0, Universe): a request outside it stops the replay with an
	// error, and the Recorder is presized for it. Universe ≤ 0 bounds
	// requests by MaxUniverse instead, so outside input never grows the
	// dense structures without limit. Block-loading policies pull in
	// whole blocks, so expand a trace's bound with model.ItemUniverse to
	// presize for every item the cache may load. Statistics do not
	// depend on Universe.
	Universe int
	// Probe, when non-nil, is attached to the Recorder, which gives it
	// one record per access, and to the cache when it implements
	// Instrumented, which reports its lifecycle records (marks, phase
	// resets, layer resizes). It is detached from the cache before
	// Replay returns. Probes observe, they never steer: statistics are
	// identical with and without one.
	Probe obs.Probe
}

// cancelStride is how many requests Replay serves between context
// polls. Polling ctx.Err() neither allocates nor locks, but once per
// request would still put an interface call on the hot path; once per
// stride keeps cancellation latency bounded (a few microseconds of
// work) at zero per-request cost.
const cancelStride = 4096

// Replay drives every request of src through c from c's current state
// and returns the statistics. Call c.Reset() first for a cold start; a
// freshly built cache needs none. Wrap an in-memory trace with
// trace.NewSliceSource.
//
// A nil error means every request was replayed. Otherwise the
// statistics cover the requests served before the replay stopped, and
// the error says why: ctx ended (polled every cancelStride requests),
// src failed, or a request fell outside the universe (see
// ReplayOptions.Universe).
func Replay(ctx context.Context, c Cache, src trace.Source, opt ReplayOptions) (Stats, error) {
	rec := NewRecorder(c.Name(), opt.Universe)
	universe := opt.Universe
	if universe <= 0 {
		universe = MaxUniverse
	}
	if opt.Probe != nil {
		if in, ok := c.(Instrumented); ok {
			in.SetProbe(opt.Probe)
			defer in.SetProbe(nil)
		}
		rec.SetProbe(opt.Probe)
	}
	// The concrete slice source gets its own loop so the compiler can
	// inline Next and Item; through the interface each request pays two
	// dynamic calls.
	if s, ok := src.(*trace.SliceSource); ok {
		return replaySlice(ctx, c, s, rec, universe)
	}
	return replaySource(ctx, c, src, rec, universe)
}

// replaySlice is Replay's loop over an in-memory trace. It must stay
// allocation-free per request (the ZeroAlloc test pins it).
//
//gclint:hotpath
func replaySlice(ctx context.Context, c Cache, src *trace.SliceSource, rec *Recorder, universe int) (Stats, error) {
	for i := 0; src.Next(); i++ {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return rec.Stats(), err
			}
		}
		it := src.Item()
		if uint64(it) >= uint64(universe) {
			return rec.Stats(), outsideUniverse(it, universe) //gclint:allowalloc cold error path, taken at most once per replay
		}
		rec.Observe(it, c.Access(it))
	}
	return rec.Stats(), nil
}

// replaySource is replaySlice for any other Source; it also reports the
// source's terminal error.
//
//gclint:hotpath
func replaySource(ctx context.Context, c Cache, src trace.Source, rec *Recorder, universe int) (Stats, error) {
	for i := 0; src.Next(); i++ {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return rec.Stats(), err
			}
		}
		it := src.Item()
		if uint64(it) >= uint64(universe) {
			return rec.Stats(), outsideUniverse(it, universe) //gclint:allowalloc cold error path, taken at most once per replay
		}
		rec.Observe(it, c.Access(it))
	}
	return rec.Stats(), src.Err()
}

// outsideUniverse builds the error for a request outside the replay's
// universe. It is kept out of line so the replay loops stay small and
// free of formatting.
//
//go:noinline
func outsideUniverse(it model.Item, universe int) error {
	return fmt.Errorf("cachesim: request for item %d is outside the universe [0, %d)", it, universe)
}

// RunColdBounded resets c and replays tr with the Recorder presized for
// universe, panicking if tr requests an item outside it.
//
//gclint:ctxok kept only because perfbench (a separate module) calls it; new code calls Replay
func RunColdBounded(c Cache, tr trace.Trace, universe int) Stats {
	c.Reset()
	return mustReplay(Replay(context.Background(), c, trace.NewSliceSource(tr), ReplayOptions{Universe: universe}))
}

// RunColdStreamBounded resets c and replays src with the Recorder
// presized for universe.
//
//gclint:ctxok kept only because perfbench (a separate module) calls it; new code calls Replay
func RunColdStreamBounded(c Cache, src trace.Source, universe int) (Stats, error) {
	c.Reset()
	return Replay(context.Background(), c, src, ReplayOptions{Universe: universe})
}

func mustReplay(st Stats, err error) Stats {
	if err != nil {
		panic(err)
	}
	return st
}

// RunFile opens path, streams the gctrace binary format through c, and
// closes the file — the one-call entry point for replaying traces
// larger than memory. Universe bounds the item IDs as in
// ReplayOptions; pass 0 when they are unknown.
func RunFile(ctx context.Context, c Cache, path string, universe int) (Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return Stats{Policy: c.Name()}, fmt.Errorf("cachesim: open trace: %w", err)
	}
	defer f.Close()
	sc, err := trace.NewScanner(f)
	if err != nil {
		return Stats{Policy: c.Name()}, err
	}
	return Replay(ctx, c, sc, ReplayOptions{Universe: universe})
}
