package autotune

import (
	"gccache/internal/cachesim"
	"gccache/internal/trace"
)

// DefaultApplyStride is how many accesses Drive replays between polls
// of the tuner's proposal buffer. Polling is a mutex acquire and an int
// compare, so the stride matters only for reaction latency; a fraction
// of the decision window keeps resizes near their window boundary.
const DefaultApplyStride = 256

// Drive replays tr cold through c with t attached as the policy probe,
// polling t.Apply every applyEvery accesses (DefaultApplyStride if
// applyEvery < 1) so proposals become live resizes. It is the
// single-threaded serving loop in miniature — the same
// observe-then-poll shape gcserve's replay uses — and what the
// convergence tests and gcsim's -autotune mode run.
//
// c must implement cachesim.Instrumented (to attach the tuner) and
// cachesim.LayerResizable (to be resized); Drive panics otherwise, as
// misconfiguration here silently measures nothing.
func Drive(c cachesim.Cache, t *Tuner, tr trace.Trace, applyEvery int) cachesim.Stats {
	if applyEvery < 1 {
		applyEvery = DefaultApplyStride
	}
	inst := c.(cachesim.Instrumented)
	rz := c.(cachesim.LayerResizable)
	t.SetLiveTarget(rz.ItemLayerTarget())
	inst.SetProbe(t)
	defer inst.SetProbe(nil)
	c.Reset()
	rec := cachesim.NewRecorder(c.Name(), 0)
	for i, it := range tr {
		rec.Observe(it, c.Access(it))
		if (i+1)%applyEvery == 0 {
			t.Apply(rz)
		}
	}
	return rec.Stats()
}
