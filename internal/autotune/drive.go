package autotune

import (
	"context"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/trace"
)

// DefaultApplyStride is how many accesses Drive replays between polls
// of the tuner's proposal buffer. Polling is a mutex acquire and an int
// compare, so the stride matters only for reaction latency; a fraction
// of the decision window keeps resizes near their window boundary.
const DefaultApplyStride = 256

// Drive replays tr cold through c with t attached as the probe of the
// policy and of the replay's recorder, polling t.Apply every applyEvery
// accesses (DefaultApplyStride if
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
	rec.SetProbe(t)
	for len(tr) >= applyEvery {
		rec.Serve(c, tr[:applyEvery])
		tr = tr[applyEvery:]
		t.Apply(rz)
	}
	rec.Serve(c, tr)
	return rec.Stats()
}

// applyTick is how often ApplyLoop polls for a proposal.
const applyTick = 20 * time.Millisecond

// ApplyLoop applies t's proposals to a cache that concurrent traffic
// drives, until ctx ends. Every applyTick it peeks at the proposal
// buffer, and only when a proposal waits does it call withCache, which
// must run its argument on the live cache under the lock that
// serializes Access (a shard's or a cluster node's mutex).
func (t *Tuner) ApplyLoop(ctx context.Context, withCache func(func(cachesim.Cache))) {
	apply := func(c cachesim.Cache) {
		if rz, ok := c.(cachesim.LayerResizable); ok {
			t.Apply(rz)
		}
	}
	tick := time.NewTicker(applyTick)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if _, ok := t.Pending(); ok {
				withCache(apply)
			}
		}
	}
}
