package cluster

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/cluster/ring"
	"gccache/internal/model"
	"gccache/internal/policy"
)

const (
	testK        = 64
	testB        = 8
	testUniverse = 4096
)

func testNodeConfig(addr string) NodeConfig {
	return NodeConfig{
		Addr: addr, K: testK, B: testB, Universe: testUniverse,
		NewCache: func() cachesim.Cache { return policy.NewItemLRU(testK) },
	}
}

// startNodes brings up n loopback nodes and returns them with their
// addresses. Cleanup closes them.
func startNodes(t *testing.T, n int) ([]*Node, []string) {
	t.Helper()
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := range nodes {
		nd, err := NewNode(testNodeConfig("127.0.0.1:0"))
		if err != nil {
			t.Fatal(err)
		}
		addr, err := nd.Start()
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], addrs[i] = nd, addr
		t.Cleanup(func() { nd.Close() })
	}
	return nodes, addrs
}

func testRing(t *testing.T, addrs []string) *ring.Ring {
	t.Helper()
	r, err := ring.New(addrs, 16, 11)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// driveRouted pushes items through the client in owner-grouped batches
// and returns how many batches were issued.
func driveRouted(t *testing.T, c *Client, items []model.Item, batch int) int {
	t.Helper()
	groups := map[int][]model.Item{}
	issued := 0
	for at := 0; at < len(items); at += batch {
		end := at + batch
		if end > len(items) {
			end = len(items)
		}
		for g := range groups {
			groups[g] = groups[g][:0]
		}
		c.Route(items[at:end], groups)
		for g := 0; g < c.ring.Len(); g++ { // deterministic order over the node indices
			sub := groups[g]
			if len(sub) == 0 {
				continue
			}
			issued++
			if err := c.Do(sub); err != nil {
				t.Fatalf("Do: %v", err)
			}
		}
	}
	return issued
}

// TestClusterServesAndAccounts runs a 3-node ring end to end: every
// batch lands on its ring owner, node-side accesses sum to what the
// client sent, and the accounting identity holds with zero mismatches.
func TestClusterServesAndAccounts(t *testing.T) {
	nodes, addrs := startNodes(t, 3)
	c := NewClient(testRing(t, addrs), ClientConfig{Timeout: 2 * time.Second})
	defer c.Close()

	items := make([]model.Item, 4000)
	for i := range items {
		items[i] = model.Item(uint64(i*37) % testUniverse)
	}
	issued := driveRouted(t, c, items, 32)

	st := c.Stats()
	if !st.Identity() {
		t.Fatalf("accounting identity broken: %+v", st)
	}
	if st.Issued != int64(issued) || st.ServedFirstTry != int64(issued) {
		t.Fatalf("fault-free run: issued=%d servedFirstTry=%d, want both %d", st.Issued, st.ServedFirstTry, issued)
	}
	if st.AckMismatches != 0 || st.Rejected != 0 || st.Failovers != 0 {
		t.Fatalf("fault-free run injected faults: %+v", st)
	}
	var nodeAccesses, nodeHits, nodeMisses int64
	for _, nd := range nodes {
		s := nd.Stats()
		nodeAccesses += s.Accesses
		nodeHits += s.Hits
		nodeMisses += s.Misses
	}
	if nodeAccesses != int64(len(items)) {
		t.Errorf("nodes served %d accesses, client sent %d", nodeAccesses, len(items))
	}
	if nodeHits != st.Hits || nodeMisses != st.Misses {
		t.Errorf("hit/miss accounting diverged: nodes %d/%d, client %d/%d", nodeHits, nodeMisses, st.Hits, st.Misses)
	}
	if state, acc, err := c.Health(0); err != nil || state != "ready" {
		t.Errorf("Health(0) = %q/%d/%v, want ready", state, acc, err)
	}
}

// TestDrainingNodeFailsOver drains one node and asserts the ring keeps
// serving: batches owned by the drained node are acked by a successor
// and counted as retried-successfully, never lost, never rejected.
func TestDrainingNodeFailsOver(t *testing.T) {
	nodes, addrs := startNodes(t, 3)
	c := NewClient(testRing(t, addrs), ClientConfig{Timeout: 2 * time.Second})
	defer c.Close()

	nodes[1].Drain()
	if nodes[1].Ready() || !nodes[1].Draining() {
		t.Fatal("Drain did not move the node to draining")
	}
	items := make([]model.Item, 2000)
	for i := range items {
		items[i] = model.Item(uint64(i*13) % testUniverse)
	}
	driveRouted(t, c, items, 16)

	st := c.Stats()
	if !st.Identity() {
		t.Fatalf("accounting identity broken: %+v", st)
	}
	if st.Rejected != 0 {
		t.Fatalf("drained node caused %d rejections, want failover: %+v", st.Rejected, st)
	}
	if st.RetriedOK == 0 || st.Failovers == 0 {
		t.Fatalf("no batches failed over around the drained node: %+v", st)
	}
	if s := nodes[1].Stats(); s.Accesses != 0 {
		t.Errorf("drained node served %d accesses", s.Accesses)
	}
	if state, _, err := c.Health(1); err != nil || state != "draining" {
		t.Errorf("Health(1) = %q/%v, want draining", state, err)
	}
	nodes[1].Resume()
	if !nodes[1].Ready() {
		t.Error("Resume did not restore readiness")
	}
}

// TestKilledNodeFailsOverAndBreakerTrips kills a node outright: its
// batches time out, fail over, and the repeated failures trip the
// breaker so later batches skip the dead node without burning the
// deadline.
func TestKilledNodeFailsOverAndBreakerTrips(t *testing.T) {
	nodes, addrs := startNodes(t, 3)
	c := NewClient(testRing(t, addrs), ClientConfig{
		Timeout:          300 * time.Millisecond,
		Retries:          0,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // never half-opens within the test
	})
	defer c.Close()

	nodes[2].Close()
	items := make([]model.Item, 1500)
	for i := range items {
		items[i] = model.Item(uint64(i*29) % testUniverse)
	}
	driveRouted(t, c, items, 16)

	st := c.Stats()
	if !st.Identity() {
		t.Fatalf("accounting identity broken: %+v", st)
	}
	if st.Rejected != 0 {
		t.Fatalf("killed node caused %d rejections despite live successors: %+v", st.Rejected, st)
	}
	if st.RetriedOK == 0 {
		t.Fatalf("no batches failed over around the killed node: %+v", st)
	}
	if st.BreakerSkips == 0 {
		t.Errorf("breaker never short-circuited the dead node: %+v", st)
	}
	if b := c.breakerFor(2); b.State() != "open" {
		t.Errorf("dead node's breaker is %q, want open", b.State())
	}
}

// TestHandoffPreservesStateByteIdentically is the differential test the
// issue demands: run traffic into a node, hand its state to a fresh
// node over the wire, and require the receiver's snapshot to re-encode
// byte-for-byte equal — recency order, counters, shape, everything.
func TestHandoffPreservesStateByteIdentically(t *testing.T) {
	nodes, addrs := startNodes(t, 2)
	src, dst := nodes[0], nodes[1]

	r := testRing(t, addrs[:1])
	c := NewClient(r, ClientConfig{Timeout: 2 * time.Second})
	defer c.Close()
	items := make([]model.Item, 3000)
	for i := range items {
		items[i] = model.Item(uint64(i*i+i) % testUniverse)
	}
	driveRouted(t, c, items, 24)

	before := src.Snapshot().Encode()
	if err := src.HandoffTo(addrs[1], 2*time.Second); err != nil {
		t.Fatalf("HandoffTo: %v", err)
	}
	if !src.Draining() {
		t.Error("source is not draining after handoff")
	}
	after := dst.Snapshot().Encode()
	if !bytes.Equal(before, after) {
		t.Fatalf("handoff changed state: source snapshot %d bytes, receiver %d bytes, contents differ", len(before), len(after))
	}
	// The receiver's cache must actually hold the warm set, not just
	// report matching bytes.
	ss, ds := src.Stats(), dst.Stats()
	if ss != ds {
		t.Errorf("stats diverged: source %+v, receiver %+v", ss, ds)
	}
}

// TestHandoffRefusesShapeMismatch asserts a snapshot from a
// differently-shaped node is rejected with a structured error.
func TestHandoffRefusesShapeMismatch(t *testing.T) {
	src, err := NewNode(testNodeConfig("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	odd, err := NewNode(NodeConfig{
		Addr: "127.0.0.1:0", K: testK * 2, B: testB, Universe: testUniverse,
		NewCache: func() cachesim.Cache { return policy.NewItemLRU(testK * 2) },
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := odd.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer odd.Close()
	if err := src.HandoffTo(addr, 2*time.Second); err == nil {
		t.Fatal("handoff to a differently-shaped node succeeded")
	}
	if err := odd.Restore(src.Snapshot()); err == nil {
		t.Fatal("Restore accepted a shape-mismatched snapshot")
	}
}

// TestOutOfUniverseItemIsRefused sends a batch holding one item beyond
// a bounded node's universe. The node must refuse the whole batch with
// a bad-frame error naming the item and the bound — not crash on its
// connection goroutine — leave its counters untouched, and go on
// serving valid batches, with the client's accounting identity intact.
func TestOutOfUniverseItemIsRefused(t *testing.T) {
	nodes, addrs := startNodes(t, 1)
	c := NewClient(testRing(t, addrs), ClientConfig{Timeout: 2 * time.Second})
	defer c.Close()

	before := nodes[0].Stats()
	err := c.Do([]model.Item{1, testUniverse + 5, 2})
	var we *WireError
	if !errors.As(err, &we) || we.Code != errBadFrame {
		t.Fatalf("Do = %v, want a bad-frame WireError", err)
	}
	for _, want := range []string{"4101", "4096"} {
		if !strings.Contains(we.Msg, want) {
			t.Errorf("refusal %q does not name %s", we.Msg, want)
		}
	}
	if got := nodes[0].Stats(); got != before {
		t.Errorf("refused batch moved the node's stats: %+v -> %+v", before, got)
	}

	if err := c.Do([]model.Item{1, 2, 3}); err != nil {
		t.Fatalf("valid batch after a refused one: %v", err)
	}
	if got := nodes[0].Stats(); got.Accesses != before.Accesses+3 {
		t.Errorf("node accesses %d after a 3-item batch, want %d", got.Accesses, before.Accesses+3)
	}
	st := c.Stats()
	if !st.Identity() || st.Issued != 2 || st.ServedFirstTry != 1 || st.Rejected != 1 {
		t.Errorf("client accounting %+v, want 2 issued = 1 first-try + 1 rejected", st)
	}
}

// TestUndeclaredUniverseRefusesMaxUniverse: a node with no declared
// universe still bounds the IDs it takes from the wire. A batch holding
// item cachesim.MaxUniverse is refused with a bad-frame error naming the
// item, and the node serves on.
func TestUndeclaredUniverseRefusesMaxUniverse(t *testing.T) {
	cfg := testNodeConfig("127.0.0.1:0")
	cfg.Universe = 0
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	addr, err := nd.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(testRing(t, []string{addr}), ClientConfig{Timeout: 2 * time.Second})
	defer c.Close()

	err = c.Do([]model.Item{1, cachesim.MaxUniverse, 2})
	var we *WireError
	if !errors.As(err, &we) || we.Code != errBadFrame || !strings.Contains(we.Msg, "4194304") {
		t.Fatalf("Do = %v, want a bad-frame WireError naming item 4194304", err)
	}
	if st := nd.Stats(); st.Accesses != 0 {
		t.Errorf("refused batch reached the cache: %+v", st)
	}
	if err := c.Do([]model.Item{1, 2}); err != nil {
		t.Fatalf("valid batch after a refused one: %v", err)
	}
}

// recencyList is a fixed MRU-first recency order for building warm sets.
type recencyList []model.Item

func (r recencyList) AppendRecency(dst []model.Item) []model.Item { return append(dst, r...) }

// TestRestoreRefusesOutOfUniverseWarmSet hands a node a snapshot whose
// warm set decodes to an item beyond its universe. Restore must refuse
// it before replaying any of the warm set, leaving the node's Snapshot
// bytes unchanged.
func TestRestoreRefusesOutOfUniverseWarmSet(t *testing.T) {
	nd, err := NewNode(testNodeConfig("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	nd.apply(1, []model.Item{10, 11, 12})
	before := nd.Snapshot().Encode()

	snap := nd.Snapshot()
	// LRU-first replay order is 9, 4101, 7: a partial replay would
	// already have touched 9.
	snap.Sections["warmset"] = appendWarmset(nil, recencyList{7, testUniverse + 5, 9})
	err = nd.Restore(snap)
	if err == nil || !strings.Contains(err.Error(), "4101") {
		t.Fatalf("Restore = %v, want a refusal naming item 4101", err)
	}
	if after := nd.Snapshot().Encode(); !bytes.Equal(before, after) {
		t.Error("refused snapshot changed the node's state")
	}
}
