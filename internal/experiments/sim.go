package experiments

import (
	"context"

	"gccache/internal/cachesim"
	"gccache/internal/trace"
)

// Experiments run to completion: nothing cancels them, so their replays
// and sweeps run under a background context, and a sweep's error (only
// ever a context's) is not checked.

// replay runs tr through c — a freshly built or just-Reset cache.
// Experiment inputs are generated in-process, far below
// cachesim.MaxUniverse, so an error is a bug in the experiment and
// panics.
func replay(c cachesim.Cache, tr trace.Trace) cachesim.Stats {
	st, err := cachesim.Replay(context.Background(), c, trace.NewSliceSource(tr), cachesim.ReplayOptions{})
	if err != nil {
		panic(err)
	}
	return st
}

// noWorker is the stateless worker for sweeps that pool nothing.
func noWorker() struct{} { return struct{}{} }
