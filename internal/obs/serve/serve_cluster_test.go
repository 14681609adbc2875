package serve

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gccache/internal/cluster"
	"gccache/internal/cluster/ring"
	"gccache/internal/model"
)

// freeLoopbackAddr reserves an ephemeral port and releases it, so a
// test can hand a concrete address to components that must agree on it
// (ring file entries) before anything listens there.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func writeRingFile(t *testing.T, addrs ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ring.txt")
	if err := os.WriteFile(path, []byte("# test ring\n"+strings.Join(addrs, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func newClusterServer(t *testing.T, ringPath, nodeAddr string) *Server {
	t.Helper()
	s, err := New(Config{
		Addr: "127.0.0.1:0", K: 128, B: 8, Policy: "item-lru",
		ClusterRing: ringPath, ClusterAddr: nodeAddr,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// TestClusterModeServesWireTraffic runs a two-node gcserve ring and
// drives it with a cluster client: batches land on their owners, the
// dashboard and stats reflect wire traffic, and readiness flips when a
// node drains.
func TestClusterModeServesWireTraffic(t *testing.T) {
	a1, a2 := freeLoopbackAddr(t), freeLoopbackAddr(t)
	rp := writeRingFile(t, a1, a2)
	s1 := newClusterServer(t, rp, a1)
	s2 := newClusterServer(t, rp, a2)

	r, err := ring.New([]string{a1, a2}, 64, s1.cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.NewClient(r, cluster.ClientConfig{Timeout: 2 * time.Second})
	defer c.Close()
	groups := map[int][]model.Item{}
	batch := make([]model.Item, 64)
	for round := 0; round < 30; round++ {
		for i := range batch {
			batch[i] = model.Item(round*len(batch) + i)
		}
		for k := range groups {
			groups[k] = groups[k][:0]
		}
		c.Route(batch, groups)
		for n := 0; n < r.Len(); n++ {
			if len(groups[n]) == 0 {
				continue
			}
			if err := c.Do(groups[n]); err != nil {
				t.Fatalf("Do: %v", err)
			}
		}
	}
	if !c.Stats().Identity() {
		t.Fatalf("accounting identity broken: %+v", c.Stats())
	}
	if got := s1.Stats().Accesses + s2.Stats().Accesses; got != 30*64 {
		t.Fatalf("nodes served %d accesses, client sent %d", got, 30*64)
	}

	ts := httptest.NewServer(s1.Handler())
	defer ts.Close()
	code, body := get(t, ts.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "cluster: node "+a1) {
		t.Errorf("cluster dashboard: %d %q", code, body)
	}
	code, body = get(t, ts.URL+"/readyz")
	if code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz on a serving node: %d %q", code, body)
	}
	// /metrics must not assume a local replay recorder exists (it does
	// not in cluster mode) and reports the node's ring membership.
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, `"cluster.node"`) {
		t.Errorf("/metrics on a cluster node: %d %q", code, body)
	}

	// Draining flips readiness but not liveness, and the wire rejects.
	s1.node.Drain()
	code, body = get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/readyz on a draining node: %d %q", code, body)
	}
	code, _ = get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Errorf("/healthz on a draining node: %d, want 200 (liveness)", code)
	}
}

// TestDrainAndHandoffMovesState drains node 1 into node 2 and asserts
// the successor carries the combined accounting afterwards.
func TestDrainAndHandoffMovesState(t *testing.T) {
	a1, a2 := freeLoopbackAddr(t), freeLoopbackAddr(t)
	rp := writeRingFile(t, a1, a2)
	s1 := newClusterServer(t, rp, a1)
	s2 := newClusterServer(t, rp, a2)

	r, err := ring.New([]string{a1, a2}, 64, s1.cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.NewClient(r, cluster.ClientConfig{Timeout: 2 * time.Second})
	defer c.Close()
	items := make([]model.Item, 500)
	for i := range items {
		items[i] = model.Item(i)
	}
	groups := map[int][]model.Item{}
	c.Route(items, groups)
	for n := 0; n < r.Len(); n++ {
		if len(groups[n]) > 0 {
			if err := c.Do(groups[n]); err != nil {
				t.Fatalf("Do: %v", err)
			}
		}
	}
	before := s1.Stats().Accesses + s2.Stats().Accesses

	if err := s1.DrainAndHandoff(2 * time.Second); err != nil {
		t.Fatalf("DrainAndHandoff: %v", err)
	}
	if ok, _ := s1.Ready(); ok {
		t.Error("node still ready after DrainAndHandoff")
	}
	if got := s2.Stats().Accesses; got != before {
		t.Errorf("successor accounts %d accesses after handoff, want %d", got, before)
	}
}

// TestFailedStartReleasesPort is the regression test for the
// startup-error listener leak: when a later startup step fails (the
// cluster listener cannot bind), the already-bound HTTP listener must
// be closed so the port is immediately reusable.
func TestFailedStartReleasesPort(t *testing.T) {
	// Occupy the cluster address so node startup fails.
	blocker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	nodeAddr := blocker.Addr().String()

	httpAddr := freeLoopbackAddr(t)
	s, err := New(Config{
		Addr: httpAddr, K: 128, B: 8, Policy: "item-lru",
		ClusterRing: writeRingFile(t, nodeAddr), ClusterAddr: nodeAddr,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err == nil {
		s.Stop()
		t.Fatal("Start succeeded with the cluster port occupied")
	}
	// The HTTP port must be free again right away — no leaked listener.
	l, err := net.Listen("tcp", httpAddr)
	if err != nil {
		t.Fatalf("failed Start leaked the HTTP listener: %v", err)
	}
	l.Close()
}

// TestClusterConfigValidation covers the ring-file error paths.
func TestClusterConfigValidation(t *testing.T) {
	if _, err := New(Config{Addr: ":0", K: 8, B: 8, ClusterRing: "/no/such/ring", ClusterAddr: "x:1"}, nil); err == nil {
		t.Error("missing ring file accepted")
	}
	rp := writeRingFile(t, "127.0.0.1:9101")
	if _, err := New(Config{Addr: ":0", K: 8, B: 8, ClusterRing: rp, ClusterAddr: "127.0.0.1:9999"}, nil); err == nil {
		t.Error("cluster addr outside the ring file accepted")
	}
	if _, err := New(Config{Addr: ":0", K: 8, B: 8, Policy: "bogus", ClusterRing: rp, ClusterAddr: "127.0.0.1:9101"}, nil); err == nil {
		t.Error("unknown policy accepted in cluster mode")
	}
}
