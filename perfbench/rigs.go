package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/cluster"
	"gccache/internal/cluster/ring"
	"gccache/internal/concurrent"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/trace"
)

// minPasses is the fewest timed calls any loop makes, however short its
// share of the window.
const minPasses = 3

// checkStats counts one replay whose statistics must equal want exactly
// and satisfy the recorder's accounting identities.
func checkStats(r *result, what string, got, want cachesim.Stats, n int) {
	ok := got == want && got.Accesses == int64(n) &&
		got.Hits+got.Misses == got.Accesses && got.SpatialHits+got.TemporalHits == got.Hits
	r.op(ok, "%s: got %v, want %v over %d requests", what, got, want, n)
}

// simRig replays the input cold through IBLP, and its first gcmLen
// requests through GCM, on one goroutine.
type simRig struct {
	in         *input
	gcmTr      trace.Trace
	iblp       *core.IBLP
	gcm        *core.GCM
	refI, refG cachesim.Stats
}

func newSimRig(in *input, gcmLen int) *simRig {
	return &simRig{
		in:    in,
		gcmTr: in.tr[:min(gcmLen, len(in.tr))],
		iblp:  core.NewIBLPEvenSplitBounded(simK, in.g, in.u),
		gcm:   core.NewGCMBounded(simK, in.g, in.seed, in.u),
	}
}

func (s *simRig) replayIBLP() cachesim.Stats {
	return cachesim.RunColdBounded(s.iblp, s.in.tr, s.in.u)
}

// replayGCM reseeds first: GCM.Reset keeps the rng running, and every
// pass must reproduce the first one.
func (s *simRig) replayGCM() cachesim.Stats {
	s.gcm.Reseed(s.in.seed)
	return cachesim.RunColdBounded(s.gcm, s.gcmTr, s.in.u)
}

// reference runs one untimed pass of each policy; every later pass must
// reproduce it.
func (s *simRig) reference(r *result) {
	s.refI, s.refG = s.replayIBLP(), s.replayGCM()
	checkStats(r, "iblp reference", s.refI, s.refI, len(s.in.tr))
	checkStats(r, "gcm reference", s.refG, s.refG, len(s.gcmTr))
}

// phase runs sim passes for d. A pass is IBLP replays, repeated until
// they have taken as long as the last GCM replay, then one GCM replay,
// so each policy gets about half the phase.
func (s *simRig) phase(r *result, d time.Duration, tr *tracer) (iblp, gcm phaseOut) {
	n := len(s.in.tr)
	log := tr.log()
	var st cachesim.Stats
	var gcmDur time.Duration
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < d; pass++ {
		pid, ps := log.id(), log.now()
		for spent := time.Duration(0); spent == 0 || spent < gcmDur; {
			id, cs := log.id(), log.now()
			seg := timeCall(log, pid, pid, 1, int64(n), func() {
				st = s.replayIBLP()
				log.end(id, pid, pid, "cachesim.replay.iblp", cs)
			})
			checkStats(r, "iblp replay", st, s.refI, n)
			iblp.segs = append(iblp.segs, seg)
			spent += seg.wall
		}
		id, cs := log.id(), log.now()
		seg := timeCall(log, pid, pid, 1, int64(len(s.gcmTr)), func() {
			st = s.replayGCM()
			log.end(id, pid, pid, "cachesim.replay.gcm", cs)
		})
		checkStats(r, "gcm replay", st, s.refG, len(s.gcmTr))
		gcm.segs = append(gcm.segs, seg)
		gcmDur = seg.wall
		log.end(pid, 0, pid, "sim.pass", ps)
	}
	return iblp, gcm
}

// gcmReplay times one GCM replay (the serve and wire workloads'
// gcm_req_per_s).
func (s *simRig) gcmReplay(r *result) segment {
	var st cachesim.Stats
	seg := timeCall(nil, 0, 0, 1, int64(len(s.gcmTr)), func() { st = s.replayGCM() })
	checkStats(r, "gcm replay", st, s.refG, len(s.gcmTr))
	return seg
}

// loop calls step for d, and at least minPasses times.
func loop(d time.Duration, step func() segment) phaseOut {
	var o phaseOut
	for start := time.Now(); len(o.segs) < minPasses || time.Since(start) < d; {
		o.segs = append(o.segs, step())
	}
	return o
}

// newSharded builds a bounded sharded IBLP cache of simK items in total.
func newSharded(in *input, shards int) (*concurrent.Sharded, error) {
	return concurrent.NewShardedBounded(shards, simK, in.g, in.u, func(k int) cachesim.Cache {
		return core.NewIBLPEvenSplitBounded(k, in.g, in.u)
	})
}

// serveRig is a persistent engine with one producer per stream over a
// sharded IBLP cache.
type serveRig struct {
	s        *concurrent.Sharded
	e        *concurrent.Engine
	streams  []trace.Trace
	n        int   // requests per Replay
	accesses int64 // the cache's accesses after the last Replay
	par      int   // kernels per calibration: the processors the engine keeps busy
}

func newServeRig(in *input, shards, producers, par int) (*serveRig, error) {
	s, err := newSharded(in, shards)
	if err != nil {
		return nil, err
	}
	e, err := concurrent.NewEngine(s, producers, concurrent.BatchConfig{})
	if err != nil {
		return nil, err
	}
	return &serveRig{s: s, e: e, streams: concurrent.SplitStreams(in.tr, producers), n: len(in.tr), par: par}, nil
}

func (s *serveRig) close() { s.e.Close() }

// replay times one Engine.Replay, which must add exactly n accesses and
// return no error.
func (s *serveRig) replay(r *result, log *spanLog) segment {
	var st cachesim.Stats
	var err error
	id, ls := log.id(), log.now()
	seg := timeCall(log, 0, id, s.par, int64(s.n), func() {
		st, err = s.e.Replay(context.Background(), s.streams)
		log.end(id, 0, id, "concurrent.engine.replay", ls)
	})
	r.op(err == nil && st.Accesses-s.accesses == int64(s.n),
		"engine replay: err %v, %d accesses added, want %d", err, st.Accesses-s.accesses, s.n)
	s.accesses = st.Accesses
	return seg
}

func (s *serveRig) phase(r *result, d time.Duration, tr *tracer) phaseOut {
	log := tr.log()
	return loop(d, func() segment { return s.replay(r, log) })
}

// wireRig is numNodes in-process nodes on loopback, one client, and the
// input split into client streams.
type wireRig struct {
	nodes   []*cluster.Node
	client  *cluster.Client
	streams []trace.Trace
	pos     []int // each stream's next request
	acked   int64 // items acked over the rig's life
}

func newWireRig(in *input, streams int) (*wireRig, error) {
	w := &wireRig{streams: concurrent.SplitStreams(in.tr, streams)}
	w.pos = make([]int, len(w.streams))
	addrs := make([]string, numNodes)
	for i := range addrs {
		n, err := cluster.NewNode(cluster.NodeConfig{
			Addr: "127.0.0.1:0", K: nodeK, B: blockSize, Universe: in.u,
			NewCache: func() cachesim.Cache { return core.NewIBLPEvenSplitBounded(nodeK, in.g, in.u) },
		})
		if err != nil {
			w.close()
			return nil, err
		}
		if addrs[i], err = n.Start(); err != nil {
			w.close()
			return nil, err
		}
		w.nodes = append(w.nodes, n)
	}
	rg, err := ring.New(addrs, cluster.DefaultReplicas, in.seed)
	if err != nil {
		w.close()
		return nil, err
	}
	w.client = cluster.NewClient(rg, cluster.ClientConfig{Timeout: 2 * time.Second, Retries: 2, Seed: in.seed})
	return w, nil
}

func (w *wireRig) close() {
	if w.client != nil {
		w.client.Close()
	}
	for _, n := range w.nodes {
		n.Close()
	}
}

// nodeStats sums the nodes' counters and lists each node's accesses.
func (w *wireRig) nodeStats() (accesses, misses int64, per []int64) {
	for _, n := range w.nodes {
		st := n.Stats()
		accesses += st.Accesses
		misses += st.Misses
		per = append(per, st.Accesses)
	}
	return accesses, misses, per
}

// check verifies the client's accounting and that the nodes applied
// exactly the items the client saw acked.
func (w *wireRig) check(r *result) {
	st := w.client.Stats()
	r.op(st.Identity(), "client identity: %+v", st)
	r.op(st.AckMismatches == 0 && st.Rejected == 0,
		"client: %d ack mismatches, %d rejected", st.AckMismatches, st.Rejected)
	acc, _, _ := w.nodeStats()
	r.op(acc == w.acked, "nodes applied %d accesses, client saw %d acked", acc, w.acked)
}

// step drives the cluster for one wireSegment, then runs one kernel per
// client stream with the clients stopped.
func (w *wireRig) step(r *result, tr *tracer) segment {
	seg := w.segment(r, tr)
	seg.cal = calibrateSpan(tr.log(), 0, 0, len(w.streams))
	return seg
}

func (w *wireRig) phase(r *result, d time.Duration, tr *tracer) phaseOut {
	return loop(d, func() segment { return w.step(r, tr) })
}

// segment runs every client stream in a closed loop for wireSegment:
// take the stream's next wireBatch items, Route them by owner, then Do
// each owner's group. Every Do must succeed.
func (w *wireRig) segment(r *result, tr *tracer) segment {
	type tally struct {
		lat        []float64 // Do latency, µs
		acked, dos int64
		errs       []error
	}
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		tallies = make([]tally, len(w.streams))
	)
	cpu0, start := cpuTime(), time.Now()
	for i := range w.streams {
		wg.Add(1)
		go func(t *tally, st trace.Trace, pos *int, log *spanLog) {
			defer wg.Done()
			groups := make(map[int][]model.Item, numNodes)
			for !stop.Load() {
				end := min(*pos+wireBatch, len(st))
				batch := st[*pos:end]
				*pos = end % len(st)

				bid, bs := log.id(), log.now()
				for k := range groups {
					groups[k] = groups[k][:0]
				}
				rid, rs := log.id(), log.now()
				w.client.Route(batch, groups)
				log.end(rid, bid, bid, "cluster.route", rs)
				for node := 0; node < numNodes; node++ {
					g := groups[node]
					if len(g) == 0 {
						continue
					}
					did, ds := log.id(), log.now()
					t0 := time.Now()
					err := w.client.Do(g)
					t.lat = append(t.lat, float64(time.Since(t0).Nanoseconds())/1e3)
					log.end(did, bid, bid, "cluster.do", ds)
					t.dos++
					if err != nil {
						t.errs = append(t.errs, err)
					} else {
						t.acked += int64(len(g))
					}
				}
				log.end(bid, 0, bid, "wire.batch", bs)
			}
		}(&tallies[i], w.streams[i], &w.pos[i], tr.log())
	}
	time.Sleep(wireSegment)
	stop.Store(true)
	wg.Wait()
	seg := segment{wall: time.Since(start), cpu: cpuTime() - cpu0}
	for i := range tallies {
		t := &tallies[i]
		seg.reqs += t.acked
		seg.lat = append(seg.lat, t.lat...)
		r.passed(t.dos - int64(len(t.errs)))
		for _, err := range t.errs {
			r.op(false, "wire Do: %v", err)
		}
	}
	w.acked += seg.reqs
	return seg
}

// procs is the stream and shard count: GOMAXPROCS rounded down to a
// power of two, since shard counts must be one.
func procs(gomaxprocs int) int {
	p := 1
	for p*2 <= gomaxprocs {
		p *= 2
	}
	return p
}
