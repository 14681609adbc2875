package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/cli"
	"gccache/internal/cluster"
	"gccache/internal/cluster/ring"
	"gccache/internal/concurrent"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/policy"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// clusterLoadConfig carries the flag values the -cluster path needs.
type clusterLoadConfig struct {
	ringPath, spec, traceFile string
	seed                      int64
	streams                   int
	ops                       int64
	batch, rate               int
	duration                  time.Duration
}

// defaultClusterBatch is the wire batch size when -batch is unset: big
// enough to amortize a round trip, small enough that a retry after a
// node kill re-applies little work.
const defaultClusterBatch = 64

// runClusterLoad drives a gcserve cache ring over the wire: the
// workload trace is split across client streams, each stream routes its
// accesses to their owning nodes in batches and issues one request per
// (batch, owner) group. Latency is per-request wall time including any
// retries and failovers. The run fails if the client-side accounting
// identity breaks or any acked batch was not fully served.
func runClusterLoad(c clusterLoadConfig) {
	nodes, err := ring.LoadFile(c.ringPath)
	if err != nil {
		cli.Fatal("gcload", err)
	}
	r, err := ring.New(nodes, cluster.DefaultReplicas, c.seed)
	if err != nil {
		cli.Fatal("gcload", err)
	}
	var tr trace.Trace
	if c.traceFile != "" {
		f, ferr := os.Open(c.traceFile)
		if ferr != nil {
			cli.Fatal("gcload", ferr)
		}
		tr, err = trace.Read(f)
		f.Close()
	} else {
		tr, err = workload.FromSpec(c.spec, c.seed)
	}
	if err != nil {
		cli.Fatal("gcload", err)
	}
	if len(tr) == 0 {
		cli.Fatalf("gcload", "empty trace")
	}
	if c.ops < 1 {
		cli.Fatalf("gcload", "-ops %d < 1", c.ops)
	}
	batch := c.batch
	if batch <= 0 {
		batch = defaultClusterBatch
	}

	client := cluster.NewClient(r, cluster.ClientConfig{
		Timeout: 2 * time.Second,
		Retries: 2,
		Seed:    c.seed,
	})
	defer client.Close()

	ctx := context.Background()
	if c.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.duration)
		defer cancel()
	}

	fmt.Printf("gcload: cluster of %d nodes (ring %s), %d streams, batch %d\n",
		r.Len(), c.ringPath, c.streams, batch)
	issued, hist, elapsed := driveCluster(ctx, client, r, tr, c.streams, c.ops, batch, c.rate)
	printClusterReport(client, issued, hist, elapsed)
	st := client.Stats()
	if !st.Identity() {
		cli.Fatalf("gcload", "accounting identity broken: issued %d != first-try %d + retried %d + rejected %d",
			st.Issued, st.ServedFirstTry, st.RetriedOK, st.Rejected)
	}
	if st.AckMismatches > 0 {
		cli.Fatalf("gcload", "%d acked batches were not fully served", st.AckMismatches)
	}
}

// driveCluster fans tr out over n client streams, each issuing routed
// batches until its share of ops accesses is done (or ctx expires).
// Returned issued counts accesses acked, not batches; hist records one
// sample per wire request (scheduled-arrival latency when rate > 0, so
// queueing under faults is charged to the ring, not absorbed).
func driveCluster(ctx context.Context, client *cluster.Client, r *ring.Ring, tr trace.Trace, n int, ops int64, batch, rate int) (int64, *obs.Histogram, time.Duration) {
	streams := concurrent.SplitStreams(tr, n)
	hist := obs.NewHistogram("request latency", "ns")
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(len(streams)*batch) / float64(rate) * float64(time.Second))
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
			items := make([]model.Item, 0, batch)
			groups := make(map[int][]model.Item, r.Len())
			base := time.Now()
			var round int64
			for sent := int64(0); sent < quota; round++ {
				if ctx.Err() != nil {
					return
				}
				items = items[:0]
				for len(items) < batch && sent+int64(len(items)) < quota {
					items = append(items, st[int((sent+int64(len(items)))%int64(len(st)))])
				}
				scheduled := time.Now()
				if interval > 0 {
					scheduled = base.Add(time.Duration(round) * interval)
					if wait := time.Until(scheduled); wait > 0 {
						time.Sleep(wait)
					}
				}
				for k := range groups {
					groups[k] = groups[k][:0]
				}
				client.Route(items, groups)
				for node := 0; node < r.Len(); node++ {
					g := groups[node]
					if len(g) == 0 {
						continue
					}
					if err := client.Do(g); err == nil {
						issued.Add(int64(len(g)))
					}
					hist.Record(int64(time.Since(scheduled)))
				}
				sent += int64(len(items))
			}
		}(st, quota)
	}
	wg.Wait()
	return issued.Load(), hist, time.Since(start)
}

// printClusterReport is the cluster-mode analogue of report.print: wire
// throughput, per-request latency, and the fault-handling counters.
func printClusterReport(client *cluster.Client, issued int64, hist *obs.Histogram, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Printf("gcload: %d accesses acked in %v: %.0f ops/sec over the wire\n",
		issued, elapsed.Round(time.Millisecond), float64(issued)/secs)
	if hist.Count() > 0 {
		fmt.Printf("gcload: request latency p50 %v  p95 %v  p99 %v  mean %v\n",
			time.Duration(hist.Percentile(0.50)),
			time.Duration(hist.Percentile(0.95)),
			time.Duration(hist.Percentile(0.99)),
			time.Duration(hist.Mean()))
	}
	st := client.Stats()
	served := st.Hits + st.Misses
	ratio := 0.0
	if served > 0 {
		ratio = float64(st.Misses) / float64(served)
	}
	fmt.Printf("gcload: batches %d issued / %d first-try / %d retried-ok / %d rejected; %d failovers, %d breaker skips; miss ratio %.4f\n",
		st.Issued, st.ServedFirstTry, st.RetriedOK, st.Rejected, st.Failovers, st.BreakerSkips, ratio)
}

// runClusterSelfcheck stands up a three-node loopback ring in-process
// and verifies the fault-tolerance contract end to end: routed batches
// land on their owners and every access is accounted; draining a node
// fails its traffic over with nothing rejected; and a graceful leave
// hands the drained node's state to its ring successor. Run under -race
// by `make cluster-smoke`.
func runClusterSelfcheck() error {
	const (
		kk       = 256
		bb       = 8
		universe = 4096
		batch    = 64
		rounds   = 50
	)
	newNode := func() (*cluster.Node, error) {
		return cluster.NewNode(cluster.NodeConfig{
			Addr: "127.0.0.1:0", K: kk, B: bb, Universe: universe,
			NewCache: func() cachesim.Cache { return policy.NewItemLRU(kk) },
		})
	}
	nodes := make([]*cluster.Node, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		n, err := newNode()
		if err != nil {
			return err
		}
		addr, err := n.Start()
		if err != nil {
			return err
		}
		defer n.Close()
		nodes[i], addrs[i] = n, addr
	}
	r, err := ring.New(addrs, cluster.DefaultReplicas, 1)
	if err != nil {
		return err
	}
	client := cluster.NewClient(r, cluster.ClientConfig{Timeout: 2 * time.Second, Retries: 1, Seed: 1})
	defer client.Close()

	nodeByAddr := func(addr string) *cluster.Node {
		for i, a := range addrs {
			if a == addr {
				return nodes[i]
			}
		}
		return nil
	}
	drive := func(from, to int) error {
		items := make([]model.Item, 0, batch)
		groups := make(map[int][]model.Item, len(nodes))
		for round := from; round < to; round++ {
			items = items[:0]
			for i := 0; i < batch; i++ {
				items = append(items, model.Item((round*batch+i)%universe))
			}
			for k := range groups {
				groups[k] = groups[k][:0]
			}
			client.Route(items, groups)
			for n := 0; n < r.Len(); n++ {
				if len(groups[n]) == 0 {
					continue
				}
				if err := client.Do(groups[n]); err != nil {
					return fmt.Errorf("batch to node %d: %w", n, err)
				}
			}
		}
		return nil
	}
	sumAccesses := func() int64 {
		var total int64
		for _, n := range nodes {
			total += n.Stats().Accesses
		}
		return total
	}

	// Phase 1: a healthy ring. Every access must be applied exactly once
	// (loopback, generous deadlines: no timeouts, so at-least-once
	// degenerates to exactly-once) and acked on the first attempt.
	if err := drive(0, rounds); err != nil {
		return err
	}
	if got := sumAccesses(); got != rounds*batch {
		return fmt.Errorf("selfcheck: ring counted %d accesses, client sent %d", got, rounds*batch)
	}
	st := client.Stats()
	if !st.Identity() || st.RetriedOK != 0 || st.Rejected != 0 {
		return fmt.Errorf("selfcheck: healthy-ring accounting off: %+v", st)
	}

	// Phase 2: drain a node mid-run. Its traffic must fail over to ring
	// successors with nothing rejected and nothing applied on the
	// drained node.
	victim := nodes[0]
	victimBefore := victim.Stats().Accesses
	victim.Drain()
	if err := drive(rounds, 2*rounds); err != nil {
		return err
	}
	st = client.Stats()
	if !st.Identity() {
		return fmt.Errorf("selfcheck: identity broken after drain: %+v", st)
	}
	if st.Rejected != 0 {
		return fmt.Errorf("selfcheck: %d batches rejected during drain (want failover)", st.Rejected)
	}
	if st.RetriedOK == 0 || st.Failovers == 0 {
		return fmt.Errorf("selfcheck: drain produced no failovers: %+v", st)
	}
	if got := victim.Stats().Accesses; got != victimBefore {
		return fmt.Errorf("selfcheck: drained node applied %d accesses", got-victimBefore)
	}
	if st.AckMismatches != 0 {
		return fmt.Errorf("selfcheck: %d acked batches not fully served", st.AckMismatches)
	}

	// Phase 3: graceful leave. The drained node hands its state to its
	// ring successor, which must account the combined history.
	succAddr, ok := r.Successor(addrs[0])
	if !ok {
		return fmt.Errorf("selfcheck: no ring successor for %s", addrs[0])
	}
	succ := nodeByAddr(succAddr)
	succBefore := succ.Stats().Accesses
	if err := victim.HandoffTo(succAddr, 2*time.Second); err != nil {
		return fmt.Errorf("selfcheck: handoff: %w", err)
	}
	if got, want := succ.Stats().Accesses, succBefore+victimBefore; got != want {
		return fmt.Errorf("selfcheck: successor accounts %d accesses after handoff, want %d", got, want)
	}

	fmt.Printf("gcload: cluster selfcheck: %d accesses over 3 nodes, %d failovers during drain, handoff verified\n",
		2*rounds*batch, st.Failovers)
	return nil
}
