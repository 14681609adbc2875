package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run builds its state from scratch; the
// median build time is setup_s.
const setupReps = 9

// An untraced serve or wire run spends gcmEvery times as long on the
// workload's own path as on GCM replays of its input, interleaved so
// both are sampled across the whole window. A traced run spends
// tracedShare of the window each on the path with spans off and on, and
// the rest on the per-layer loops.
const (
	gcmEvery    = 4
	tracedShare = 0.2
)

// withGCM calls step, and a GCM replay whenever the GCM replays have
// taken less than 1/gcmEvery of step's time, until the window ends.
func (b *bench) withGCM(r *result, gcm *simRig, step func() segment) (o, g phaseOut) {
	var mainT, gcmT time.Duration
	start := time.Now()
	for time.Since(start) < b.window || len(o.segs) < minPasses || len(g.segs) < minPasses {
		if gcmEvery*gcmT < mainT {
			seg := gcm.gcmReplay(r)
			g.segs = append(g.segs, seg)
			gcmT += seg.wall
			continue
		}
		seg := step()
		o.segs = append(o.segs, seg)
		mainT += seg.wall
	}
	return o, g
}

// warmup is the untimed lead-in that fills caches, rings and connections
// before a persistent engine or cluster is measured.
func (b *bench) warmup() time.Duration { return min(500*time.Millisecond, b.window/10) }

// setup calls build setupReps times, timing each call in reference time
// (see segments.go) as one setup_s sample. Before each call after the
// first, release (when non-nil) frees the previous build, outside the
// timed span.
func (b *bench) setup(r *result, build func() error, release func()) error {
	var raw []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && release != nil {
			release()
		}
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		wall := time.Since(t0)
		cal := calibrate(1)
		r.sample("setup_s", wall.Seconds()*float64(calNominal)/float64(cal))
		raw = append(raw, wall.Seconds())
	}
	r.raw("setup_s", medianOf(raw))
	return nil
}

// rates records a phase's median rate beside its wall-clock value.
func rates(r *result, name string, o phaseOut) {
	r.samples(name, o.rates())
	r.raw(name, medianOf(o.rawRates()))
}

// endToEnd records the metrics every untraced run reports from its main
// phase o, each beside its wall-clock value.
func endToEnd(r *result, o phaseOut, missRatio float64) {
	rates(r, "req_per_s", o)
	r.set("miss_ratio", missRatio)
	lat, rawLat := o.latency(false), o.latency(true)
	sort.Float64s(rawLat)
	for _, q := range []float64{0.50, 0.90} {
		name := fmt.Sprintf("p%.0f_us", q*100)
		r.percentile(name, q, lat)
		r.raw(name, rank(rawLat, q))
	}
	r.samples("cpu_ns_per_req", o.cpuPerReq())
}

// run is the untraced run: the end-to-end metrics.
func (b *bench) run(r *result) error {
	var in *input
	gen := func() (err error) {
		in, err = makeInput(b.spec, b.seed)
		return err
	}
	switch b.spec.kind {
	case "sim":
		var rig *simRig
		if err := b.setup(r, func() error {
			if err := gen(); err != nil {
				return err
			}
			rig = newSimRig(in, len(in.tr))
			return nil
		}, nil); err != nil {
			return err
		}
		rig.reference(r)
		o, gcm := rig.phase(r, b.window, nil)
		endToEnd(r, o, float64(rig.refI.Misses)/float64(rig.refI.Accesses))
		rates(r, "gcm_req_per_s", gcm)
		r.freeze()
		r.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(rig)

	case "serve":
		var rig *serveRig
		var gcm *simRig
		if err := b.setup(r, func() (err error) {
			if err = gen(); err != nil {
				return err
			}
			gcm = newSimRig(in, gcmPrefix)
			rig, err = newServeRig(in, b.nproc, b.nproc, b.nproc)
			return err
		}, func() { rig.close() }); err != nil {
			return err
		}
		gcm.reference(r)
		rig.phase(r, b.warmup(), nil)
		s0 := rig.s.Stats()
		o, g := b.withGCM(r, gcm, func() segment { return rig.replay(r, nil) })
		s1 := rig.s.Stats()
		endToEnd(r, o, float64(s1.Misses-s0.Misses)/float64(s1.Accesses-s0.Accesses))
		rates(r, "gcm_req_per_s", g)
		r.freeze()
		r.set("live_heap_mb", liveHeapMB())
		rig.close()

	case "wire":
		var rig *wireRig
		var gcm *simRig
		if err := b.setup(r, func() (err error) {
			if err = gen(); err != nil {
				return err
			}
			gcm = newSimRig(in, gcmPrefix)
			rig, err = newWireRig(in, b.nproc)
			return err
		}, func() { rig.close() }); err != nil {
			return err
		}
		gcm.reference(r)
		rig.phase(r, b.warmup(), nil)
		a0, m0, _ := rig.nodeStats()
		o, g := b.withGCM(r, gcm, func() segment { return rig.step(r, nil) })
		a1, m1, _ := rig.nodeStats()
		rig.check(r)
		endToEnd(r, o, float64(m1-m0)/float64(a1-a0))
		rates(r, "gcm_req_per_s", g)
		r.freeze()
		r.set("live_heap_mb", liveHeapMB())
		rig.close()

	default:
		return fmt.Errorf("unknown workload kind %q", b.spec.kind)
	}
	return nil
}

// tracedRounds is how many times a traced run alternates between its
// workload's path with spans off and with spans on, so that host noise
// falls on both sides alike.
const tracedRounds = 4

// tracedRun measures the workload's own path with spans off and on,
// then runs every layer's isolation loop over the same input.
func (b *bench) tracedRun(r *result, tr *tracer) error {
	in, err := makeInput(b.spec, b.seed)
	if err != nil {
		return err
	}
	traced := time.Duration(tracedShare * float64(b.window))
	d := traced / tracedRounds
	var phase func(tr *tracer) phaseOut
	release := func() {}
	switch b.spec.kind {
	case "sim":
		rig := newSimRig(in, len(in.tr))
		rig.reference(r)
		phase = func(tr *tracer) phaseOut {
			o, _ := rig.phase(r, d, tr)
			return o
		}
	case "serve":
		rig, err := newServeRig(in, b.nproc, b.nproc, b.nproc)
		if err != nil {
			return err
		}
		release = rig.close
		rig.phase(r, b.warmup(), nil)
		phase = func(tr *tracer) phaseOut { return rig.phase(r, d, tr) }
	case "wire":
		rig, err := newWireRig(in, b.nproc)
		if err != nil {
			return err
		}
		release = func() {
			rig.check(r)
			rig.close()
		}
		rig.phase(r, b.warmup(), nil)
		phase = func(tr *tracer) phaseOut { return rig.phase(r, d, tr) }
	default:
		return fmt.Errorf("unknown workload kind %q", b.spec.kind)
	}
	var off, on []float64
	for i := 0; i < tracedRounds; i++ {
		off = append(off, phase(nil).rates()...)
		on = append(on, phase(tr).rates()...)
	}
	r.samples("tracing.req_per_s_off", off)
	r.samples("tracing.req_per_s_on", on)
	r.set("tracing.overhead_frac", 1-medianOf(on)/medianOf(off))
	release()
	return b.probeLayers(r, in, b.window-2*traced)
}
