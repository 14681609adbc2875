package serve

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/cluster"
	"gccache/internal/cluster/ring"
	"gccache/internal/model"
	"gccache/internal/workload"
)

// TestAutotuneOffIsByteIdentical is the differential gate from the
// issue: with Autotune off (the default), a server replay must produce
// exactly the statistics of a bare cachesim replay of the same trace —
// the autotune wiring compiled in but disabled changes nothing.
func TestAutotuneOffIsByteIdentical(t *testing.T) {
	cfg := Config{
		Addr: "127.0.0.1:0", K: 64, B: 8, Policy: "iblp",
		Workload: "cyclic:n=96,len=20000", Seed: 11,
	}
	s := newTestServer(t, cfg)
	if s.tuner != nil {
		t.Fatal("tuner built with Autotune off")
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Wait() // non-looping replay runs to completion
	got := s.Stats()
	s.Stop()

	tr, err := workload.FromSpec(cfg.Workload, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildPolicy(cfg.Policy, cfg.K, model.NewFixed(cfg.B), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rec := cachesim.NewRecorder(c.Name(), 0)
	for _, it := range tr {
		rec.Observe(it, c.Access(it))
	}
	if want := rec.Stats(); got != want {
		t.Fatalf("autotune-off server stats diverge from bare replay:\n got %+v\nwant %+v", got, want)
	}
}

// TestAutotuneFlatModeResizes drives the full flat-mode loop: a cyclic
// scan of 48 items over a k=64 even split (B=1, so the block layer can
// never pay) must push the controller to i=k, applied live at a replay
// batch boundary and visible on the dashboard and /metrics.
func TestAutotuneFlatModeResizes(t *testing.T) {
	s := newTestServer(t, Config{
		Addr: "127.0.0.1:0", K: 64, B: 1, Policy: "iblp",
		Workload: "cyclic:n=48,len=50000", Loop: true,
		Autotune: true, AutotuneWindow: 96,
	})
	if s.tuner == nil {
		t.Fatal("no tuner with Autotune on")
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for s.Tuner().Resizes() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no resize applied within 10s: %+v", s.Tuner().State())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := s.Tuner().State(); st.Live != 64 {
		t.Fatalf("resized to i=%d, want the pure item layer 64: %+v", st.Live, st)
	}
	s.mu.Lock()
	liveTarget := s.resizable.ItemLayerTarget()
	s.mu.Unlock()
	if liveTarget != 64 {
		t.Fatalf("live cache target %d after apply, want 64", liveTarget)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, body := get(t, ts.URL+"/"); !strings.Contains(body, "autotune:") {
		t.Errorf("dashboard missing the autotune section:\n%s", body)
	}
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{`"autotune.resizes"`, `"autotune.live_target": 64`, `"autotune.windows"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestAutotuneConfigRejections pins the wiring's error paths: sharded
// replay and non-resizable policies cannot be autotuned.
func TestAutotuneConfigRejections(t *testing.T) {
	base := Config{Addr: ":0", K: 64, B: 8, Workload: "cyclic:n=48,len=1000", Autotune: true}

	sharded := base
	sharded.Shards = 4
	if _, err := New(sharded); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("sharded autotune accepted (err=%v)", err)
	}

	for _, p := range []string{"item-lru", "block-lru", "gcm"} {
		c := base
		c.Policy = p
		if _, err := New(c); err == nil || !strings.Contains(err.Error(), "resizing") {
			t.Errorf("policy %s accepted for autotune (err=%v)", p, err)
		}
	}

	cluster := base
	cluster.Policy = "item-lru"
	cluster.ClusterRing = writeRingFile(t, "127.0.0.1:9101")
	cluster.ClusterAddr = "127.0.0.1:9101"
	if _, err := New(cluster); err == nil || !strings.Contains(err.Error(), "resizing") {
		t.Errorf("non-resizable policy accepted for cluster autotune (err=%v)", err)
	}
}

// TestAutotuneClusterKeepsAccountingDuringResize is the satellite-4
// chaos-adjacent check: wire traffic keeps flowing while the controller
// applies a live resize under the node's batch mutex, and afterwards the
// client accounting identity holds with zero AckMismatches — no
// acknowledged batch was lost or double-counted across the resize.
func TestAutotuneClusterKeepsAccountingDuringResize(t *testing.T) {
	a1, a2 := freeLoopbackAddr(t), freeLoopbackAddr(t)
	rp := writeRingFile(t, a1, a2)
	newNode := func(addr string) *Server {
		t.Helper()
		s, err := New(Config{
			Addr: "127.0.0.1:0", K: 64, B: 1, Policy: "iblp",
			ClusterRing: rp, ClusterAddr: addr,
			Autotune: true, AutotuneWindow: 128,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		return s
	}
	s1, s2 := newNode(a1), newNode(a2)

	r, err := ring.New([]string{a1, a2}, cluster.DefaultReplicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.NewClient(r, cluster.ClientConfig{Timeout: 2 * time.Second})
	defer c.Close()

	// A cyclic scan of 96 items splits ~half per node: with B=1 and an
	// even k=64 split, each node's 48-ish residents thrash the 32-slot
	// item layer but fit i=64 — the controller must move.
	items := make([]model.Item, 96)
	for i := range items {
		items[i] = model.Item(i)
	}
	groups := map[int][]model.Item{}
	sent := int64(0)
	send := func() {
		for k := range groups {
			groups[k] = groups[k][:0]
		}
		c.Route(items, groups)
		for n := 0; n < r.Len(); n++ {
			if len(groups[n]) == 0 {
				continue
			}
			if err := c.Do(groups[n]); err != nil {
				t.Fatalf("Do: %v", err)
			}
			sent += int64(len(groups[n]))
		}
	}

	resized := func() bool { return s1.Tuner().Resizes()+s2.Tuner().Resizes() >= 1 }
	deadline := time.Now().Add(15 * time.Second)
	for !resized() {
		if time.Now().After(deadline) {
			t.Fatalf("no node resized within 15s: s1=%+v s2=%+v", s1.Tuner().State(), s2.Tuner().State())
		}
		send()
	}
	// Keep traffic flowing across and after the resize.
	for i := 0; i < 20; i++ {
		send()
	}

	st := c.Stats()
	if !st.Identity() {
		t.Fatalf("accounting identity broken after live resize: %+v", st)
	}
	if st.AckMismatches != 0 {
		t.Fatalf("%d acked batches not fully served across the resize", st.AckMismatches)
	}
	n1, n2 := s1.Stats(), s2.Stats()
	if got := n1.Accesses + n2.Accesses; got != sent {
		t.Fatalf("nodes account %d accesses, client sent %d", got, sent)
	}
	for _, ns := range []cachesim.Stats{n1, n2} {
		if ns.Hits+ns.Misses != ns.Accesses {
			t.Fatalf("node accounting identity broken: %+v", ns)
		}
	}
}
