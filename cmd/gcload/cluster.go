package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/cli"
	"gccache/internal/cluster"
	"gccache/internal/cluster/ring"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/trace"
)

// defaultClusterBatch is the wire batch size when -batch is unset: big
// enough to amortize a round trip, small enough that a retry after a
// node kill re-applies little work.
const defaultClusterBatch = 64

// runClusterLoad drives a gcserve cache ring over the wire: the
// workload trace is dealt across client streams, and drive hands each
// stream's requests to the ring a wire batch at a time, routed to their
// owning nodes with one request per (batch, owner) group. Latency is
// per-request wall time including any retries and failovers. The run
// fails if the client-side accounting identity breaks or any acked
// batch was not fully served.
func runClusterLoad(ctx context.Context, ringPath string, tr trace.Trace, seed int64, streams int, ops int64, batch, rate int) {
	nodes, err := ring.LoadFile(ringPath)
	if err != nil {
		cli.Fatal("gcload", err)
	}
	r, err := ring.New(nodes, cluster.DefaultReplicas, seed)
	if err != nil {
		cli.Fatal("gcload", err)
	}
	if batch <= 0 {
		batch = defaultClusterBatch
	}

	client := cluster.NewClient(r, cluster.ClientConfig{
		Timeout: 2 * time.Second,
		Retries: 2,
		Seed:    seed,
	})
	defer client.Close()

	fmt.Printf("gcload: cluster of %d nodes (ring %s), %d streams, batch %d\n",
		r.Len(), ringPath, streams, batch)
	hist := obs.NewHistogram("request latency", "ns")
	issued, elapsed := drive(ctx, deal(tr, streams), ops, batch, rate, wireSender(client, r.Len(), hist))
	report{issued: issued, elapsed: elapsed, hist: hist}.printRate(os.Stdout, "accesses acked", " over the wire")
	st := client.Stats()
	ratio := float64(st.Misses) / float64(max(st.Hits+st.Misses, 1))
	fmt.Printf("gcload: batches %d issued / %d first-try / %d retried-ok / %d rejected; %d failovers, %d breaker skips; miss ratio %.4f\n",
		st.Issued, st.ServedFirstTry, st.RetriedOK, st.Rejected, st.Failovers, st.BreakerSkips, ratio)
	if !st.Identity() {
		cli.Fatalf("gcload", "accounting identity broken: issued %d != first-try %d + retried %d + rejected %d",
			st.Issued, st.ServedFirstTry, st.RetriedOK, st.Rejected)
	}
	if st.AckMismatches > 0 {
		cli.Fatalf("gcload", "%d acked batches were not fully served", st.AckMismatches)
	}
}

// wireSender makes drive's per-stream senders for a ring of n nodes:
// each routes its step to the owning nodes and sends one request per
// owner, recording each request's latency from the step's due time
// (so queueing under faults is charged to the ring, not absorbed), and
// counts the accesses acked.
func wireSender(client *cluster.Client, n int, hist *obs.Histogram) func() sender {
	return func() sender {
		groups := make(map[int][]model.Item, n)
		return func(items []model.Item, due time.Time) int {
			for k := range groups {
				groups[k] = groups[k][:0]
			}
			client.Route(items, groups)
			acked := 0
			for node := 0; node < n; node++ {
				if g := groups[node]; len(g) > 0 {
					if client.Do(g) == nil {
						acked += len(g)
					}
					hist.Record(int64(time.Since(due)))
				}
			}
			return acked
		}
	}
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
	build, err := core.ByName("item-lru", model.NewFixed(bb), 1)
	if err != nil {
		return err
	}
	nodes := make([]*cluster.Node, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		n, err := cluster.NewNode(cluster.NodeConfig{
			Addr: "127.0.0.1:0", K: kk, B: bb, Universe: universe,
			NewCache: func() cachesim.Cache { return build(kk) },
		})
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

	// One client stream cycles through the universe, a wire batch a
	// step; each load phase drive runs picks up where the last left off.
	ids := make(trace.Trace, universe)
	for i := range ids {
		ids[i] = model.Item(i)
	}
	srcs := deal(ids, 1)
	send := wireSender(client, r.Len(), obs.NewHistogram("request latency", "ns"))
	const sent = rounds * batch
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
	if acked, _ := drive(context.Background(), srcs, sent, batch, 0, send); acked != sent {
		return fmt.Errorf("selfcheck: healthy ring acked %d of %d accesses", acked, sent)
	}
	if got := sumAccesses(); got != sent {
		return fmt.Errorf("selfcheck: ring counted %d accesses, client sent %d", got, sent)
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
	if acked, _ := drive(context.Background(), srcs, sent, batch, 0, send); acked != sent {
		return fmt.Errorf("selfcheck: drained ring acked %d of %d accesses", acked, sent)
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
	succ := nodes[slices.Index(addrs, succAddr)]
	succBefore := succ.Stats().Accesses
	if err := victim.HandoffTo(succAddr, 2*time.Second); err != nil {
		return fmt.Errorf("selfcheck: handoff: %w", err)
	}
	if got, want := succ.Stats().Accesses, succBefore+victimBefore; got != want {
		return fmt.Errorf("selfcheck: successor accounts %d accesses after handoff, want %d", got, want)
	}

	fmt.Printf("gcload: cluster selfcheck: %d accesses over 3 nodes, %d failovers during drain, handoff verified\n",
		2*sent, st.Failovers)
	return nil
}
