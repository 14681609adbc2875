// Command gcload is an open-loop load generator for the concurrent
// serving engine: it replays a workload through a sharded cache from
// many client streams and reports throughput (ops/sec) plus
// access-latency percentiles from the obs histogram.
//
// Two modes:
//
//   - open (default): each stream issues requests on its own schedule.
//     With -rate set, arrivals are scheduled open-loop — latency is
//     measured from the *scheduled* arrival, so queueing delay when the
//     cache falls behind is charged to the cache, not silently absorbed
//     (no coordinated omission). With -rate 0 the streams run closed-loop
//     flat out and latency is pure service time.
//   - batch: drives the batched engine (concurrent.Engine.Replay) for a
//     max-throughput measurement with one lock acquisition per batch.
//
// Usage:
//
//	gcload -k 4096 -B 64 -policy iblp -shards 8 -streams 8 -ops 1000000
//	gcload -mode batch -batch 256 -depth 4 -trace requests.gct
//	gcload -scenario scenarios/diurnal.gcs -streams 8 -ops 1000000
//
// With -scenario the program is compiled rather than materialized: in
// open mode every client stream replays its own copy (seeded seed+i, so
// clients decorrelate); in batch mode the compiled stream feeds the
// engine's O(1)-memory ReplayStream path, resetting between rounds.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gccache/internal/autotune"
	"gccache/internal/cachesim"
	"gccache/internal/cli"
	"gccache/internal/concurrent"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/scenario"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

func main() {
	var (
		k         = flag.Int("k", 4096, "cache size in items (split across shards)")
		B         = flag.Int("B", 64, "block size")
		policyArg = flag.String("policy", "iblp", "policy: item-lru, block-lru, iblp, gcm, adaptive")
		spec      = flag.String("workload", "blockruns:blocks=512,B=64,run=16,len=200000", workload.SpecHelp)
		traceFile = flag.String("trace", "", "read a gctrace binary file instead of generating a workload")
		scenFile  = flag.String("scenario", "", scenario.FlagHelp)
		seed      = flag.Int64("seed", 1, "workload / policy seed")
		shards    = flag.Int("shards", 8, "lock-striped shard count (power of two)")
		streams   = flag.Int("streams", 8, "concurrent client streams")
		ops       = flag.Int64("ops", 1_000_000, "total accesses to issue (the trace repeats as needed)")
		rate      = flag.Int("rate", 0, "target total accesses/second, scheduled open-loop (0 = closed-loop, flat out)")
		mode      = flag.String("mode", "open", "load mode: open (per-access latency) or batch (batched engine throughput)")
		batch     = flag.Int("batch", 0, "batch mode: requests per batch (0 = engine default)")
		depth     = flag.Int("depth", 0, "batch mode: queue depth per shard (0 = engine default)")
		pin       = flag.Bool("pin", false, "batch mode: pin each shard worker to an OS thread (BatchConfig.PinWorkers)")
		duration  = flag.Duration("duration", 0, "stop after this long even if -ops remain (0 = run to completion)")
		selfcheck = flag.Bool("selfcheck", false, "run a small fixed load in both modes, verify accounting, and exit")

		autotuneOn = flag.Bool("autotune", false,
			"attach the §5.3 autotune controller to the load run and apply live resizes (requires -shards 1 and a resizable policy)")

		clusterMode = flag.Bool("cluster", false, "drive a gcserve cache ring over the wire instead of an in-process cache (requires -ring; with -selfcheck, runs an in-process 3-node ring)")
		ringArg     = flag.String("ring", "", "cluster mode: static ring file, one node address per line")
	)
	cli.SetUsage("gcload", "generate open-loop or batched load against a sharded cache and report throughput + latency percentiles")
	flag.Parse()

	if *selfcheck {
		check := runSelfcheck
		if *clusterMode {
			check = runClusterSelfcheck
		}
		if err := check(); err != nil {
			cli.Fatal("gcload", err)
		}
		fmt.Println("gcload: selfcheck ok")
		return
	}

	if *clusterMode {
		if *ringArg == "" {
			cli.Fatalf("gcload", "-cluster requires -ring")
		}
		if *autotuneOn {
			cli.Fatalf("gcload", "-autotune drives the in-process engine; in cluster mode the controller lives server-side (gcserve -autotune)")
		}
		if *scenFile != "" {
			cli.Fatalf("gcload", "-cluster and -scenario are mutually exclusive")
		}
		runClusterLoad(clusterLoadConfig{
			ringPath: *ringArg, spec: *spec, traceFile: *traceFile, seed: *seed,
			streams: *streams, ops: *ops, batch: *batch, rate: *rate, duration: *duration,
		})
		return
	}

	if *scenFile != "" {
		if *traceFile != "" {
			cli.Fatalf("gcload", "-scenario and -trace are mutually exclusive")
		}
		runScenarioLoad(scenarioLoadConfig{
			path: *scenFile, k: *k, B: *B, policy: *policyArg, seed: *seed,
			shards: *shards, streams: *streams, ops: *ops, rate: *rate,
			mode: *mode, batch: *batch, depth: *depth, pin: *pin, duration: *duration,
			autotune: *autotuneOn,
		})
		return
	}

	geo := model.NewFixed(*B)
	var tr trace.Trace
	var err error
	if *traceFile != "" {
		f, ferr := os.Open(*traceFile)
		if ferr != nil {
			cli.Fatal("gcload", ferr)
		}
		tr, err = trace.Read(f)
		f.Close()
	} else {
		tr, err = workload.FromSpec(*spec, *seed)
	}
	if err != nil {
		cli.Fatal("gcload", err)
	}
	if len(tr) == 0 {
		cli.Fatalf("gcload", "empty trace")
	}
	if *ops < 1 {
		cli.Fatalf("gcload", "-ops %d < 1", *ops)
	}

	checkUniverse(tr.MaxItem())
	build, err := core.ByName(*policyArg, geo, *seed)
	if err != nil {
		cli.Fatal("gcload", err)
	}
	s, err := concurrent.NewSharded(*shards, *k, geo, build)
	if err != nil {
		cli.Fatal("gcload", err)
	}
	var tn *autotune.Tuner
	if *autotuneOn {
		var stop func()
		if tn, stop, err = startAutotune(s, *k, *B, geo); err != nil {
			cli.Fatal("gcload", err)
		}
		defer stop()
	}

	ctx := context.Background()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	fmt.Printf("gcload: policy %s, k %d, B %d, %d shards, %d streams, mode %s\n",
		*policyArg, *k, *B, *shards, *streams, *mode)
	var r report
	switch *mode {
	case "open":
		r = runOpen(ctx, s, tr, *streams, *ops, *rate)
	case "batch":
		cfg := concurrent.BatchConfig{BatchSize: *batch, QueueDepth: *depth, PinWorkers: *pin}
		r, err = runBatch(ctx, s, tr, *streams, *ops, cfg)
		if err != nil && ctx.Err() == nil {
			cli.Fatal("gcload", err)
		}
	default:
		cli.Fatalf("gcload", "unknown -mode %q (want open or batch)", *mode)
	}
	r.print(os.Stdout, s)
	if tn != nil {
		printAutotune(os.Stdout, tn, s)
	}
}

// startAutotune wires the §5.3 controller into a single-shard load
// run: the tuner rides the shard's probe stream, and its apply loop
// enacts proposals under the shard's Access mutex until stop, which
// joins the loop.
func startAutotune(s *concurrent.Sharded, k, B int, geo model.Geometry) (tn *autotune.Tuner, stop func(), err error) {
	if n := s.NumShards(); n != 1 {
		// Each shard is an independent cache at k/shards; a single global
		// split target is meaningless across them.
		return nil, nil, fmt.Errorf("-autotune requires -shards 1 (got %d)", n)
	}
	s.WithShardCache(0, func(c cachesim.Cache) {
		tn, err = autotune.NewLive(autotune.Config{K: k, B: B, Geometry: geo}, c)
	})
	if err != nil {
		return nil, nil, err
	}
	s.SetProbe(tn)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tn.ApplyLoop(ctx, func(f func(cachesim.Cache)) { s.WithShardCache(0, f) })
	}()
	return tn, func() { cancel(); <-done }, nil
}

// printAutotune reports the controller's end-of-run standing.
func printAutotune(w *os.File, tn *autotune.Tuner, s *concurrent.Sharded) {
	st := tn.State()
	final := -1
	s.WithShardCache(0, func(c cachesim.Cache) {
		if rz, ok := c.(cachesim.LayerResizable); ok {
			final = rz.ItemLayerTarget()
		}
	})
	fmt.Fprintf(w, "gcload: autotune: %d windows (W=%d), %d resizes, final split %d (formula %d, working set %d)\n",
		st.Windows, st.Window, st.Resizes, final, st.Formula, st.WorkingSet)
}

// checkUniverse exits when the largest requested item is at or past
// cachesim.MaxUniverse: the caches' ID-indexed arrays grow with the
// largest ID they see, so input keeps the bound Replay applies.
func checkUniverse(largest model.Item) {
	if err := cachesim.CheckUniverse(largest); err != nil {
		cli.Fatal("gcload", err)
	}
}

// scenarioLoadConfig carries the flag values the -scenario path needs.
type scenarioLoadConfig struct {
	path, policy, mode          string
	k, B, shards, streams, rate int
	batch, depth                int
	pin                         bool
	autotune                    bool
	seed                        int64
	ops                         int64
	duration                    time.Duration
}

// runScenarioLoad is the -scenario path. The program compiles instead
// of materializing: open mode gives each client stream its own copy
// seeded seed+i (clients decorrelate, like independent users running
// the same workload); batch mode streams one compiled copy through the
// engine's ReplayStream, resetting between rounds. The universe
// pre-pass replays each seed once in O(1) memory to hold the input to
// cachesim.MaxUniverse, exactly as the trace path does.
func runScenarioLoad(c scenarioLoadConfig) {
	prog, info, err := scenario.Load(c.path)
	if err != nil {
		cli.Fatal("gcload", err)
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	seed := scenario.ResolveSeed(info, c.seed, seedSet)
	if c.ops < 1 {
		cli.Fatalf("gcload", "-ops %d < 1", c.ops)
	}

	geo := model.NewFixed(c.B)
	nSeeds := 1
	if c.mode == "open" {
		nSeeds = c.streams
	}
	var largest model.Item
	for i := 0; i < nSeeds; i++ {
		m, merr := scenario.MaxItem(prog, seed+int64(i))
		if merr != nil {
			cli.Fatal("gcload", merr)
		}
		largest = max(largest, m)
	}
	checkUniverse(largest)
	build, err := core.ByName(c.policy, geo, seed)
	if err != nil {
		cli.Fatal("gcload", err)
	}
	s, err := concurrent.NewSharded(c.shards, c.k, geo, build)
	if err != nil {
		cli.Fatal("gcload", err)
	}
	var tn *autotune.Tuner
	if c.autotune {
		var stop func()
		if tn, stop, err = startAutotune(s, c.k, c.B, geo); err != nil {
			cli.Fatal("gcload", err)
		}
		defer stop()
	}

	ctx := context.Background()
	if c.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.duration)
		defer cancel()
	}

	fmt.Printf("gcload: scenario %s (%d requests/replay, seed %d), policy %s, k %d, B %d, %d shards, %d streams, mode %s\n",
		c.path, info.Length, seed, c.policy, c.k, c.B, c.shards, c.streams, c.mode)
	var r report
	switch c.mode {
	case "open":
		streams := make([]*scenario.Stream, c.streams)
		for i := range streams {
			streams[i], err = scenario.Compile(prog, seed+int64(i))
			if err != nil {
				cli.Fatal("gcload", err)
			}
		}
		r = runOpenScenario(ctx, s, streams, c.ops, c.rate)
	case "batch":
		src, cerr := scenario.Compile(prog, seed)
		if cerr != nil {
			cli.Fatal("gcload", cerr)
		}
		cfg := concurrent.BatchConfig{BatchSize: c.batch, QueueDepth: c.depth, PinWorkers: c.pin}
		r, err = runBatchScenario(ctx, s, src, c.ops, cfg)
		if err != nil && ctx.Err() == nil {
			cli.Fatal("gcload", err)
		}
	default:
		cli.Fatalf("gcload", "unknown -mode %q (want open or batch)", c.mode)
	}
	r.print(os.Stdout, s)
	if tn != nil {
		printAutotune(os.Stdout, tn, s)
	}
}

// runOpenScenario mirrors runOpen but drives each client from its own
// compiled stream, wrapping via Reset when a replay completes — the
// scenario repeats exactly like the trace slices do under -ops.
func runOpenScenario(ctx context.Context, s *concurrent.Sharded, streams []*scenario.Stream, ops int64, rate int) report {
	hist := obs.NewHistogram("access latency", "ns")
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(len(streams)) / float64(rate) * float64(time.Second))
	}
	var issued atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range streams {
		quota := ops / int64(len(streams))
		if int64(w) < ops%int64(len(streams)) {
			quota++
		}
		if quota == 0 {
			continue
		}
		wg.Add(1)
		go func(st *scenario.Stream, quota int64) {
			defer wg.Done()
			base := time.Now()
			for i := int64(0); i < quota; i++ {
				if i&1023 == 0 && ctx.Err() != nil {
					return
				}
				scheduled := time.Now()
				if interval > 0 {
					scheduled = base.Add(time.Duration(i) * interval)
					if wait := time.Until(scheduled); wait > 0 {
						time.Sleep(wait)
					}
				}
				if !st.Next() {
					st.Reset()
					if !st.Next() {
						return // zero-length scenario: nothing to replay
					}
				}
				s.Access(st.Item())
				hist.Record(int64(time.Since(scheduled)))
				issued.Add(1)
			}
		}(streams[w], quota)
	}
	wg.Wait()
	return report{mode: "open", issued: issued.Load(), elapsed: time.Since(start), hist: hist}
}

// runBatchScenario mirrors runBatch on the engine's O(1)-memory
// ReplayStream path: one warmup replay outside the timed window, then
// whole-scenario rounds (Reset between them) until ops accesses have
// completed or ctx expires.
func runBatchScenario(ctx context.Context, s *concurrent.Sharded, src *scenario.Stream, ops int64, cfg concurrent.BatchConfig) (report, error) {
	e, err := concurrent.NewEngine(s, 1, cfg)
	if err != nil {
		return report{mode: "batch"}, err
	}
	defer e.Close()
	if _, err := e.ReplayStream(ctx, src); err != nil {
		return report{mode: "batch"}, err
	}
	src.Reset()
	base := s.Stats().Accesses
	start := time.Now()
	var issued int64
	for issued < ops {
		st, err := e.ReplayStream(ctx, src)
		elapsed := time.Since(start)
		src.Reset()
		issued = st.Accesses - base
		if err != nil {
			return report{mode: "batch", issued: issued, elapsed: elapsed}, err
		}
	}
	return report{mode: "batch", issued: issued, elapsed: time.Since(start)}, nil
}

// report is one load run's measurements.
type report struct {
	mode    string
	issued  int64 // accesses actually completed (≤ requested under -duration)
	elapsed time.Duration
	hist    *obs.Histogram // per-access latency; nil in batch mode
}

func (r report) print(w *os.File, s *concurrent.Sharded) {
	secs := r.elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Fprintf(w, "gcload: %d ops in %v: %.0f ops/sec\n", r.issued, r.elapsed.Round(time.Millisecond), float64(r.issued)/secs)
	if r.hist != nil {
		fmt.Fprintf(w, "gcload: latency p50 %v  p95 %v  p99 %v  mean %v\n",
			time.Duration(r.hist.Percentile(0.50)),
			time.Duration(r.hist.Percentile(0.95)),
			time.Duration(r.hist.Percentile(0.99)),
			time.Duration(r.hist.Mean()))
	}
	st := s.Stats()
	var acquired, contended int64
	for _, l := range s.ShardLoads() {
		acquired += l.Acquired
		contended += l.Contended
	}
	fmt.Fprintf(w, "gcload: miss ratio %.4f (%d/%d), %d lock acquisitions (%.2f accesses/lock, %.1f%% contended)\n",
		st.MissRatio(), st.Misses, st.Accesses,
		acquired, float64(st.Accesses)/float64(max(acquired, 1)),
		100*float64(contended)/float64(max(acquired, 1)))
}

// runOpen drives s from n concurrent streams until ops accesses have
// completed (or ctx expires), recording each access's latency.
func runOpen(ctx context.Context, s *concurrent.Sharded, tr trace.Trace, n int, ops int64, rate int) report {
	streams := concurrent.SplitStreams(tr, n)
	hist := obs.NewHistogram("access latency", "ns")
	// Open-loop schedule: the total arrival rate is divided evenly, so
	// each stream's inter-arrival gap is streams/rate seconds.
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(len(streams)) / float64(rate) * float64(time.Second))
	}
	var issued atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w, st := range streams {
		quota := ops / int64(len(streams))
		if int64(w) < ops%int64(len(streams)) {
			quota++
		}
		if quota == 0 {
			continue
		}
		wg.Add(1)
		go func(st trace.Trace, quota int64) {
			defer wg.Done()
			base := time.Now()
			for i := int64(0); i < quota; i++ {
				if i&1023 == 0 && ctx.Err() != nil {
					return
				}
				scheduled := time.Now()
				if interval > 0 {
					scheduled = base.Add(time.Duration(i) * interval)
					if wait := time.Until(scheduled); wait > 0 {
						time.Sleep(wait)
					}
				}
				s.Access(st[int(i%int64(len(st)))])
				hist.Record(int64(time.Since(scheduled)))
				issued.Add(1)
			}
		}(st, quota)
	}
	wg.Wait()
	return report{mode: "open", issued: issued.Load(), elapsed: time.Since(start), hist: hist}
}

// runBatch replays the split streams through a persistent batched
// engine in rounds until ops accesses have completed (or ctx expires).
// Engine construction, one warmup round, and teardown all happen
// outside the timed window, so the reported ops/sec is steady-state
// serving throughput — honestly comparable with open mode, which has
// no per-round setup to hide. The warmup round's accesses appear in
// the cache's cumulative statistics (the miss-ratio line) but not in
// issued/elapsed; runSelfcheck pins that accounting identity.
func runBatch(ctx context.Context, s *concurrent.Sharded, tr trace.Trace, n int, ops int64, cfg concurrent.BatchConfig) (report, error) {
	streams := concurrent.SplitStreams(tr, n)
	e, err := concurrent.NewEngine(s, len(streams), cfg)
	if err != nil {
		return report{mode: "batch"}, err
	}
	defer e.Close()
	if _, err := e.Replay(ctx, streams); err != nil {
		return report{mode: "batch"}, err
	}
	base := s.Stats().Accesses
	start := time.Now()
	var issued int64
	for issued < ops {
		st, err := e.Replay(ctx, streams)
		elapsed := time.Since(start)
		issued = st.Accesses - base
		if err != nil {
			return report{mode: "batch", issued: issued, elapsed: elapsed}, err
		}
	}
	return report{mode: "batch", issued: issued, elapsed: time.Since(start)}, nil
}

// runSelfcheck exercises both modes on a small fixed load and verifies
// the accounting end to end: every issued access is counted by the
// cache, every open-mode access produced a latency sample, and the
// percentile summary is monotone. Run under -race by `make load-smoke`.
func runSelfcheck() error {
	const (
		kk      = 256
		bb      = 8
		nShards = 4
		nStream = 4
		nOps    = 40_000
	)
	geo := model.NewFixed(bb)
	tr, err := workload.FromSpec("blockruns:blocks=64,B=8,run=8,len=20000", 1)
	if err != nil {
		return err
	}
	build, err := core.ByName("iblp", geo, 1)
	if err != nil {
		return err
	}

	// Open mode: exact accounting, one latency sample per access.
	s, err := concurrent.NewSharded(nShards, kk, geo, build)
	if err != nil {
		return err
	}
	r := runOpen(context.Background(), s, tr, nStream, nOps, 0)
	if r.issued != nOps {
		return fmt.Errorf("selfcheck: open mode issued %d ops, want %d", r.issued, nOps)
	}
	if st := s.Stats(); st.Accesses != nOps {
		return fmt.Errorf("selfcheck: cache counted %d accesses, want %d", st.Accesses, nOps)
	}
	if c := r.hist.Count(); c != nOps {
		return fmt.Errorf("selfcheck: %d latency samples, want %d", c, nOps)
	}
	p50, p95, p99 := r.hist.Percentile(0.50), r.hist.Percentile(0.95), r.hist.Percentile(0.99)
	if p50 > p95 || p95 > p99 {
		return fmt.Errorf("selfcheck: non-monotone percentiles p50=%d p95=%d p99=%d", p50, p95, p99)
	}
	r.print(os.Stdout, s)

	// Batch mode: the timed window must cover exactly the measured
	// rounds — the warmup round appears in the cache's cumulative
	// statistics but not in issued. With ops = 2×len(tr) the engine
	// runs one warmup round plus two timed rounds, so the identity is
	//	issued = 2×len(tr),  cache accesses = issued + len(tr).
	s2, err := concurrent.NewSharded(nShards, kk, geo, build)
	if err != nil {
		return err
	}
	r2, err := runBatch(context.Background(), s2, tr, nStream, int64(2*len(tr)), concurrent.BatchConfig{})
	if err != nil {
		return err
	}
	if r2.issued != int64(2*len(tr)) {
		return fmt.Errorf("selfcheck: batch mode issued %d ops, want %d", r2.issued, 2*len(tr))
	}
	st2 := s2.Stats()
	if st2.Accesses != r2.issued+int64(len(tr)) {
		return fmt.Errorf("selfcheck: batch accounting identity broken: cache counted %d accesses, want issued %d + warmup %d",
			st2.Accesses, r2.issued, len(tr))
	}
	var acquired int64
	for _, l := range s2.ShardLoads() {
		acquired += l.Acquired
	}
	if acquired >= st2.Accesses/2 {
		return fmt.Errorf("selfcheck: batching did not amortize locking (%d acquisitions for %d accesses)", acquired, st2.Accesses)
	}
	r2.print(os.Stdout, s2)
	return nil
}
