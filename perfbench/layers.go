package main

import (
	"bytes"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/scenario"
	"gccache/internal/trace"
)

// layerUnits is how many equal units the per-layer budget is cut into;
// each loop below takes the number of units noted beside it.
const layerUnits = 11

// timePasses calls fn until d has elapsed (at least minPasses times) and
// returns each call's reference time (see segments.go) divided by n, in
// ns.
func timePasses(d time.Duration, n int, fn func()) []float64 {
	var out []float64
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < d; i++ {
		seg := timeCall(nil, 0, 0, 1, int64(n), fn)
		out = append(out, float64(seg.wall.Nanoseconds())*seg.scale()/float64(n))
	}
	return out
}

// probeLayers runs each layer's isolation loop over the input for its
// share of budget and records the per-layer metrics. Every loop checks
// its output.
func (b *bench) probeLayers(r *result, in *input, budget time.Duration) error {
	unit := budget / layerUnits
	n := len(in.tr)

	// policy (2 units): bare Access loops with no recorder; the counts
	// come from the reference replay.
	sim := newSimRig(in, len(in.tr))
	sim.reference(r)
	ref := sim.refI
	bare := timePasses(unit, n, func() {
		sim.iblp.Reset()
		var hits int64
		for _, it := range in.tr {
			if sim.iblp.Access(it).Hit {
				hits++
			}
		}
		r.op(hits == ref.Hits, "bare iblp loop: %d hits, want %d", hits, ref.Hits)
	})
	r.samples("policy.iblp.ns_per_access", bare)
	r.samples("policy.gcm.ns_per_access", timePasses(unit, n, func() {
		sim.gcm.Reseed(in.seed)
		sim.gcm.Reset()
		var hits int64
		for _, it := range in.tr {
			if sim.gcm.Access(it).Hit {
				hits++
			}
		}
		r.op(hits == sim.refG.Hits, "bare gcm loop: %d hits, want %d", hits, sim.refG.Hits)
	}))
	r.set("policy.iblp.items_loaded_per_req", float64(ref.ItemsLoaded)/float64(ref.Accesses))
	r.set("policy.iblp.evictions_per_req", float64(ref.Evictions)/float64(ref.Accesses))
	r.set("policy.iblp.spatial_hit_frac", float64(ref.SpatialHits)/float64(ref.Hits))

	// cachesim (2 units): the slice replay, and the stream replay over an
	// in-memory encoding of the input.
	run := timePasses(unit, n, func() { checkStats(r, "iblp replay", sim.replayIBLP(), ref, n) })
	r.samples("cachesim.run_ns_per_req", run)
	r.set("cachesim.recorder_ns_per_req", medianOf(run)-medianOf(bare))
	var enc bytes.Buffer
	if err := in.tr.Write(&enc); err != nil {
		return err
	}
	r.samples("cachesim.stream_ns_per_req", timePasses(unit, n, func() {
		sc, err := trace.NewScanner(bytes.NewReader(enc.Bytes()))
		if err != nil {
			r.op(false, "stream replay: %v", err)
			return
		}
		st, err := cachesim.RunColdStreamBounded(sim.iblp, sc, in.u)
		r.op(err == nil && st == ref, "stream replay: err %v, got %v, want %v", err, st, ref)
	}))

	// trace and scenario (1 unit): the input layers drained alone.
	r.samples("trace.decode_ns_per_item", timePasses(unit/2, n, func() {
		sc, err := trace.NewScanner(bytes.NewReader(enc.Bytes()))
		var k int
		for err == nil && sc.Next() {
			k++
		}
		if err == nil {
			err = sc.Err()
		}
		r.op(err == nil && k == n, "trace decode: err %v, %d items, want %d", err, k, n)
	}))
	st, err := scenario.Compile(in.prog, in.seed)
	if err != nil {
		return err
	}
	r.samples("scenario.ns_per_item", timePasses(unit/2, int(st.Len()), func() {
		st.Reset()
		var k int64
		for st.Next() {
			k++
		}
		r.op(k == st.Len(), "scenario stream: %d items, want %d", k, st.Len())
	}))

	// concurrent (3.5 units): one goroutine on Sharded.Access, the engine
	// at 1×1, and the engine at the serve workload's shape.
	sh, err := newSharded(in, b.nproc)
	if err != nil {
		return err
	}
	seq := timePasses(unit, n, func() {
		sh.Reset()
		for _, it := range in.tr {
			sh.Access(it)
		}
		s := sh.Stats()
		r.op(s.Accesses == int64(n) && s.Hits+s.Misses == s.Accesses, "sequential sharded: %v over %d", s, n)
	})
	r.samples("concurrent.sharded_ns_per_access", seq)

	one, err := newServeRig(in, 1, 1, min(2, b.nproc))
	if err != nil {
		return err
	}
	one.phase(r, unit/4, nil)
	o := one.phase(r, unit, nil)
	one.close()
	for _, rate := range o.rates() {
		r.sample("concurrent.engine_1x1_ns_per_req", 1e9/rate)
	}

	eng, err := newServeRig(in, b.nproc, b.nproc, b.nproc)
	if err != nil {
		return err
	}
	eng.phase(r, unit/4, nil)
	l0, a0 := eng.s.ShardLoads(), eng.s.Stats().Accesses
	o = eng.phase(r, unit, nil)
	l1, a1 := eng.s.ShardLoads(), eng.s.Stats().Accesses
	eng.close()
	var acquired, contended int64
	for i := range l1 {
		acquired += l1[i].Acquired - l0[i].Acquired
		contended += l1[i].Contended - l0[i].Contended
	}
	r.set("concurrent.engine_vs_sequential", medianOf(o.rates())*medianOf(seq)/1e9)
	r.percentile("concurrent.replay_us", 0.50, o.latency(false))
	r.set("concurrent.accesses_per_lock", float64(a1-a0)/float64(acquired))
	r.set("concurrent.contended_frac", float64(contended)/float64(acquired))
	r.set("concurrent.cpu_per_wall", o.cpuPerWall())

	// cluster (2.5 units): health round trips, routing alone, then the
	// closed-loop wire drive.
	w, err := newWireRig(in, b.nproc)
	if err != nil {
		return err
	}
	defer w.close()
	w.phase(r, unit/4, nil)
	// Health round trips in passes of healthPass, one kernel run after each.
	const healthPass = 200
	var rtt []float64
	for i, start := 0, time.Now(); i < minPasses || time.Since(start) < unit/2; i++ {
		var lat []float64
		seg := timeCall(nil, 0, 0, 1, healthPass, func() {
			for j := 0; j < healthPass; j++ {
				t0 := time.Now()
				state, _, err := w.client.Health(j % numNodes)
				lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
				r.op(err == nil && state == "ready", "health of node %d: %q, %v", j%numNodes, state, err)
			}
		})
		for _, l := range lat {
			rtt = append(rtt, l*seg.scale())
		}
	}
	r.percentile("cluster.health_rtt_us", 0.50, rtt)
	groups := make(map[int][]model.Item, numNodes)
	batches := (n + wireBatch - 1) / wireBatch
	r.samples("cluster.route_ns_per_batch", timePasses(unit/2, batches, func() {
		var routed int
		for pos := 0; pos < n; pos += wireBatch {
			for k := range groups {
				groups[k] = groups[k][:0]
			}
			w.client.Route(in.tr[pos:min(pos+wireBatch, n)], groups)
			for _, g := range groups {
				routed += len(g)
			}
		}
		r.op(routed == n, "route: %d items routed, want %d", routed, n)
	}))
	c0, acked := w.client.Stats(), w.acked
	_, _, p0 := w.nodeStats()
	o = w.phase(r, unit, nil)
	c1 := w.client.Stats()
	_, _, p1 := w.nodeStats()
	w.check(r)
	issued := float64(c1.Issued - c0.Issued)
	r.set("cluster.items_per_request", float64(w.acked-acked)/issued)
	r.set("cluster.attempts_per_request", float64(c1.Attempts-c0.Attempts)/issued)
	var busiest, total int64
	for i := range p1 {
		d := p1[i] - p0[i]
		busiest = max(busiest, d)
		total += d
	}
	r.set("cluster.node_load_skew", float64(busiest)*float64(len(p1))/float64(total))
	r.percentile("cluster.do_p99_us", 0.99, o.latency(false))
	return nil
}
