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
// One loop, drive, runs every per-request load: open mode here, and
// -cluster load and its selfcheck over the wire. -duration bounds every
// mode, a -rate run included.
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
	"io"
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
		policyArg = flag.String("policy", "iblp", cli.PolicyHelp)
		in        = cli.NewInput("gcload", "blockruns:blocks=512,B=64,run=16,len=200000", "trace", true)
		shards    = flag.Int("shards", 8, "lock-striped shard count (power of two)")
		streams   = flag.Int("streams", 8, "concurrent client streams")
		ops       = flag.Int64("ops", 1_000_000, "total accesses to issue (the trace repeats as needed)")
		rate      = flag.Int("rate", 0, "target total accesses/second, scheduled open-loop (0 = closed-loop, flat out)")
		mode      = flag.String("mode", "open", "load mode: open (per-access latency) or batch (batched engine throughput)")
		batch     = flag.Int("batch", 0, "batch mode: requests per batch (0 = engine default)")
		depth     = flag.Int("depth", 0, "batch mode: queue depth per shard (0 = engine default)")
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

	if *ops < 1 {
		cli.Fatalf("gcload", "-ops %d < 1", *ops)
	}
	if *streams < 1 {
		cli.Fatalf("gcload", "-streams %d < 1", *streams)
	}
	if *clusterMode {
		if *ringArg == "" {
			cli.Fatalf("gcload", "-cluster requires -ring")
		}
		if *autotuneOn {
			cli.Fatalf("gcload", "-autotune drives the in-process engine; in cluster mode the controller lives server-side (gcserve -autotune)")
		}
		if in.Scenario != "" {
			cli.Fatalf("gcload", "-cluster and -scenario are mutually exclusive")
		}
		tr := loadTrace(in, false)
		ctx, cancel := timeBox(*duration)
		defer cancel()
		runClusterLoad(ctx, *ringArg, tr, in.Seed, *streams, *ops, *batch, *rate)
		return
	}

	// A -scenario program compiles instead of materializing: open mode
	// gives each client stream its own copy seeded seed+i (clients
	// decorrelate, like independent users running the same workload);
	// batch mode streams one compiled copy through the engine's
	// ReplayStream, resetting between rounds. The loader replays each
	// of those seeds once in O(1) memory to hold the input to
	// cachesim.MaxUniverse, as the trace path does.
	geo := cli.Geometry("gcload", *B, *k)
	seed, origin := in.Seed, ""
	var prog *scenario.Program
	var tr trace.Trace
	if in.Scenario != "" {
		nSeeds := 1
		if *mode == "open" {
			nSeeds = *streams
		}
		var info *scenario.Info
		prog, info, seed = in.Program(nSeeds)
		origin = fmt.Sprintf("scenario %s (%d requests/replay, seed %d), ", in.Scenario, info.Length, seed)
	} else {
		tr = loadTrace(in, true)
	}
	build, err := core.ByName(*policyArg, geo, seed)
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
		if tn, stop, err = startAutotune(s, *k, *B); err != nil {
			cli.Fatal("gcload", err)
		}
		defer stop()
	}

	ctx, cancel := timeBox(*duration)
	defer cancel()

	fmt.Printf("gcload: %spolicy %s, k %d, B %d, %d shards, %d streams, mode %s\n",
		origin, *policyArg, *k, *B, *shards, *streams, *mode)
	var r report
	cfg := concurrent.BatchConfig{BatchSize: *batch, QueueDepth: *depth}
	switch {
	case *mode == "open" && prog != nil:
		r = serveOpen(ctx, s, compile(prog, seed, *streams), *ops, *rate)
	case *mode == "open":
		r = serveOpen(ctx, s, deal(tr, *streams), *ops, *rate)
	case *mode == "batch" && prog != nil:
		var src *scenario.Stream
		if src, err = scenario.Compile(prog, seed); err != nil {
			cli.Fatal("gcload", err)
		}
		r, err = batchRounds(ctx, s, 1, cfg, *ops, func(ctx context.Context, e *concurrent.Engine) (cachesim.Stats, error) {
			defer src.Reset()
			return e.ReplayStream(ctx, src)
		})
	case *mode == "batch":
		r, err = batchTrace(ctx, s, tr, *streams, *ops, cfg)
	default:
		cli.Fatalf("gcload", "unknown -mode %q (want open or batch)", *mode)
	}
	if err != nil && ctx.Err() == nil {
		cli.Fatal("gcload", err)
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
func startAutotune(s *concurrent.Sharded, k, B int) (tn *autotune.Tuner, stop func(), err error) {
	if n := s.NumShards(); n != 1 {
		// Each shard is an independent cache at k/shards; a single global
		// split target is meaningless across them.
		return nil, nil, fmt.Errorf("-autotune requires -shards 1 (got %d)", n)
	}
	s.WithShardCache(0, func(c cachesim.Cache) {
		tn, err = autotune.NewLive(autotune.Config{K: k, B: B}, c)
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

// loadTrace loads the -trace file or -workload and refuses an empty
// trace; bounded holds it to cachesim.MaxUniverse, as the in-process
// caches' ID-indexed arrays grow with the largest ID they see.
func loadTrace(in *cli.Input, bounded bool) trace.Trace {
	tr := in.Trace(bounded)
	if len(tr) == 0 {
		cli.Fatalf("gcload", "empty trace")
	}
	return tr
}

// timeBox returns the run's context: it ends after d, or only when
// cancelled if d is 0.
func timeBox(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.WithCancel(context.Background())
}

// source yields one client stream's requests, starting over at its
// end; ok is false only when the stream holds no request at all.
type source func() (it model.Item, ok bool)

// deal deals the non-empty tr round-robin over n client streams, each
// replaying its slice from the start when it ends.
func deal(tr trace.Trace, n int) []source {
	var srcs []source
	for _, st := range concurrent.SplitStreams(tr, n) {
		i := 0
		srcs = append(srcs, func() (model.Item, bool) {
			it := st[i]
			i = (i + 1) % len(st)
			return it, true
		})
	}
	return srcs
}

// compile compiles n copies of the program, seeded seed, seed+1, …,
// each a source that replays its copy from the start (Reset) when it
// ends.
func compile(prog *scenario.Program, seed int64, n int) []source {
	srcs := make([]source, n)
	for i := range srcs {
		st, err := scenario.Compile(prog, seed+int64(i))
		if err != nil {
			cli.Fatal("gcload", err)
		}
		srcs[i] = func() (model.Item, bool) {
			if !st.Next() {
				st.Reset()
				if !st.Next() {
					return 0, false // zero-length scenario: nothing to replay
				}
			}
			return st.Item(), true
		}
	}
	return srcs
}

// sender serves one step of a client stream's requests, due at due,
// records the step's latency from due, and returns how many of its
// requests were served.
type sender func(items []model.Item, due time.Time) int

// drive runs every open-loop load gcload makes. It splits ops over
// srcs, one goroutine per client stream, and hands each stream's
// requests, up to step at a time, to a sender newSend makes for that
// stream. With rate > 0 the streams share rate requests a second on a
// fixed timetable: a stream's j-th step is due j·len(srcs)·step/rate
// after the stream starts, so a step held up by a slow server is
// charged for the wait (no coordinated omission). With rate 0 a step
// is due when it is taken, and its latency is pure service time. Every
// stream checks ctx before each step, and its wait for a due time ends
// when ctx does. drive returns the requests served and the time taken.
func drive(ctx context.Context, srcs []source, ops int64, step, rate int, newSend func() sender) (int64, time.Duration) {
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(len(srcs)*step) / float64(rate) * float64(time.Second))
	}
	done := ctx.Done()
	var served atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w, next := range srcs {
		quota := ops / int64(len(srcs))
		if int64(w) < ops%int64(len(srcs)) {
			quota++
		}
		send := newSend()
		wg.Add(1)
		go func() {
			var n int64
			defer func() { served.Add(n); wg.Done() }()
			items := make([]model.Item, 0, step)
			timer := time.NewTimer(time.Hour)
			timer.Stop() // stopped before it fired, so Reset may rearm it
			defer timer.Stop()
			base := time.Now()
			for j := int64(0); quota > 0; j++ {
				select {
				case <-done:
					return
				default:
				}
				items = items[:0]
				for len(items) < step && int64(len(items)) < quota {
					it, ok := next()
					if !ok {
						return
					}
					items = append(items, it)
				}
				due := time.Now()
				if interval > 0 {
					due = base.Add(time.Duration(j) * interval)
					if wait := time.Until(due); wait > 0 {
						timer.Reset(wait)
						select {
						case <-done:
							return
						case <-timer.C:
						}
					}
				}
				n += int64(send(items, due))
				quota -= int64(len(items))
			}
		}()
	}
	wg.Wait()
	return served.Load(), time.Since(start)
}

// serveOpen runs open mode in process: drive hands each request to
// s.Access on its own, so every access gets one latency sample.
func serveOpen(ctx context.Context, s *concurrent.Sharded, srcs []source, ops int64, rate int) report {
	hist := obs.NewHistogram("latency", "ns")
	send := func(items []model.Item, due time.Time) int {
		s.Access(items[0])
		hist.Record(int64(time.Since(due)))
		return 1
	}
	issued, elapsed := drive(ctx, srcs, ops, 1, rate, func() sender { return send })
	return report{issued: issued, elapsed: elapsed, hist: hist}
}

// batchRounds is batch mode: it builds a batched engine over s with the
// given producers and runs one warmup round, then timed rounds until ops
// accesses have completed or ctx ends; round replays one round on the
// engine. Engine construction, the warmup round and teardown all sit
// outside the timed window, so the reported ops/sec is steady-state
// serving throughput — honestly comparable with open mode, which has
// no per-round setup to hide. The warmup round's accesses appear in
// the cache's cumulative statistics (the miss-ratio line) but not in
// issued/elapsed; runSelfcheck pins that accounting identity.
func batchRounds(ctx context.Context, s *concurrent.Sharded, producers int, cfg concurrent.BatchConfig, ops int64,
	round func(context.Context, *concurrent.Engine) (cachesim.Stats, error)) (report, error) {
	e, err := concurrent.NewEngine(s, producers, cfg)
	if err != nil {
		return report{}, err
	}
	defer e.Close()
	if _, err := round(ctx, e); err != nil {
		return report{}, err
	}
	base := s.Stats().Accesses
	start := time.Now()
	var r report
	for r.issued < ops {
		st, err := round(ctx, e)
		r.issued, r.elapsed = st.Accesses-base, time.Since(start)
		if err != nil {
			return r, err
		}
	}
	return r, nil
}

// batchTrace runs batchRounds over tr dealt to n producer streams.
func batchTrace(ctx context.Context, s *concurrent.Sharded, tr trace.Trace, n int, ops int64, cfg concurrent.BatchConfig) (report, error) {
	streams := concurrent.SplitStreams(tr, n)
	return batchRounds(ctx, s, len(streams), cfg, ops, func(ctx context.Context, e *concurrent.Engine) (cachesim.Stats, error) {
		return e.Replay(ctx, streams)
	})
}

// report is one load run's measurements.
type report struct {
	issued  int64 // requests actually served (≤ requested under -duration)
	elapsed time.Duration
	hist    *obs.Histogram // latency from each step's due time; nil in batch mode
}

// printRate prints r's throughput line, "gcload: <issued> <counted> in
// <elapsed>: <rate> ops/sec<where>", and, when r holds latency
// samples, their percentiles under the histogram's name.
func (r report) printRate(w io.Writer, counted, where string) {
	secs := max(r.elapsed.Seconds(), 1e-9)
	fmt.Fprintf(w, "gcload: %d %s in %v: %.0f ops/sec%s\n", r.issued, counted, r.elapsed.Round(time.Millisecond), float64(r.issued)/secs, where)
	if r.hist != nil && r.hist.Count() > 0 {
		fmt.Fprintf(w, "gcload: %s p50 %v  p95 %v  p99 %v  mean %v\n", r.hist.Name(),
			time.Duration(r.hist.Percentile(0.50)),
			time.Duration(r.hist.Percentile(0.95)),
			time.Duration(r.hist.Percentile(0.99)),
			time.Duration(r.hist.Mean()))
	}
}

// print reports an in-process run: throughput, latency, and the cache's
// miss ratio and lock amortization.
func (r report) print(w io.Writer, s *concurrent.Sharded) {
	r.printRate(w, "ops", "")
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
	tr, err := workload.BlockRuns(workload.BlockRunsConfig{NumBlocks: 64, BlockSize: 8, MeanRunLength: 8, Length: 20000, Seed: 1})
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
	r := serveOpen(context.Background(), s, deal(tr, nStream), nOps, 0)
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
	r2, err := batchTrace(context.Background(), s2, tr, nStream, int64(2*len(tr)), concurrent.BatchConfig{})
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
