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
	// resets, layer resizes). A cache that also keeps its own Stats
	// records its own accesses (concurrent.Sharded) and gives the
	// records itself, so the Recorder then gets no probe. It is
	// detached from the cache before Replay returns. Probes observe,
	// they never steer: statistics are identical with and without one.
	Probe obs.Probe
}

// cancelStride is how many requests Replay serves between context
// polls: it serves them as one chunk through Recorder.Serve and polls
// before each chunk. Polling ctx.Err() neither allocates nor locks, but
// once per request would still put an interface call on the hot path;
// once per chunk keeps cancellation latency bounded (a few microseconds
// of work) at zero per-request cost.
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
		in, instrumented := c.(Instrumented)
		if instrumented {
			in.SetProbe(opt.Probe)
			defer in.SetProbe(nil)
		}
		// A cache that keeps its own Stats records its own accesses
		// (concurrent.Sharded): with the probe attached it reports each
		// one, so the replay's recorder must not report it again.
		if _, records := c.(interface{ Stats() Stats }); !instrumented || !records {
			rec.SetProbe(opt.Probe)
		}
	}
	// A slice source's unread items are served where they lie; any other
	// source is read into a buffer a chunk at a time.
	if s, ok := src.(*trace.SliceSource); ok {
		return replaySlice(ctx, c, s, rec, universe)
	}
	return replaySource(ctx, c, src, rec, universe)
}

// replaySlice is Replay's loop over an in-memory trace. It must stay
// allocation-free per request (the ZeroAlloc tests pin it).
//
//gclint:hotpath
func replaySlice(ctx context.Context, c Cache, src *trace.SliceSource, rec *Recorder, universe int) (Stats, error) {
	for chunk := src.Take(cancelStride); len(chunk) > 0; chunk = src.Take(cancelStride) {
		if err := ctx.Err(); err != nil {
			return rec.Stats(), err
		}
		if n := servePrefix(c, rec, chunk, universe); n < len(chunk) {
			return rec.Stats(), outsideUniverse(chunk[n], universe) //gclint:allowalloc cold error path, taken at most once per replay
		}
	}
	return rec.Stats(), nil
}

// replaySource is replaySlice for any other Source, read a chunk at a
// time into a buffer on the stack; it also reports the source's
// terminal error.
//
//gclint:hotpath
func replaySource(ctx context.Context, c Cache, src trace.Source, rec *Recorder, universe int) (Stats, error) {
	var buf [cancelStride]model.Item
	for {
		n := 0
		for ; n < len(buf) && src.Next(); n++ {
			buf[n] = src.Item()
		}
		if n == 0 {
			return rec.Stats(), src.Err()
		}
		if err := ctx.Err(); err != nil {
			return rec.Stats(), err
		}
		if m := servePrefix(c, rec, buf[:n], universe); m < n {
			return rec.Stats(), outsideUniverse(buf[m], universe) //gclint:allowalloc cold error path, taken at most once per replay
		}
		if n < len(buf) {
			return rec.Stats(), src.Err()
		}
	}
}

// servePrefix serves chunk through c into rec up to the first request
// outside the universe, and returns how many requests it served.
//
//gclint:hotpath
func servePrefix(c Cache, rec *Recorder, chunk []model.Item, universe int) int {
	n := 0
	for n < len(chunk) && uint64(chunk[n]) < uint64(universe) {
		n++
	}
	rec.Serve(c, chunk[:n])
	return n
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
