package serve

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gccache/internal/autotune"
	"gccache/internal/cachesim"
	"gccache/internal/cluster"
	"gccache/internal/cluster/ring"
	"gccache/internal/model"
)

// TestAutotuneOffIsByteIdentical is the differential gate from the
// issue: with Autotune off (the default), a server replay must produce
// exactly the statistics of a bare cachesim replay of the same trace —
// the autotune wiring compiled in but disabled changes nothing.
func TestAutotuneOffIsByteIdentical(t *testing.T) {
	const spec = "cyclic:n=96,len=20000"
	cfg := Config{Addr: "127.0.0.1:0", K: 64, B: 8, Policy: "iblp", Seed: 11}
	s := newTestServer(t, cfg, spec)
	if s.tuner != nil {
		t.Fatal("tuner built with Autotune off")
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Wait() // non-looping replay runs to completion
	got := s.Stats()
	s.Stop()

	tr := specTrace(t, spec, cfg.Seed)
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

// TestAutotuneOnMatchesDrive is the differential gate with Autotune on:
// a non-looping server replay polls the tuner every
// autotune.DefaultApplyStride accesses, so it must end with exactly the
// statistics, resize count and live target of autotune.Drive over the
// same trace and configuration. Each case moves the split at least once,
// so the comparison covers applied resizes, not only observation.
func TestAutotuneOnMatchesDrive(t *testing.T) {
	const seed = 3
	blockruns := "blockruns:blocks=128,B=8,run=4,len=10000"
	for _, tc := range []struct {
		policy, workload string
		k, b, window     int
	}{
		{"iblp", "cyclic:n=48,len=10000", 64, 1, 96},
		{"iblp", blockruns, 256, 8, 512},
		{"adaptive", blockruns, 256, 8, 512},
	} {
		name := fmt.Sprintf("%s/%s/k=%d", tc.policy, tc.workload, tc.k)
		s := newTestServer(t, Config{
			Addr: "127.0.0.1:0", K: tc.k, B: tc.b, Policy: tc.policy, Seed: seed,
			Autotune: true, AutotuneWindow: tc.window,
		}, tc.workload)
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		s.Wait() // non-looping replay runs to completion
		got, gotResizes, gotLive := s.Stats(), s.Tuner().State().Resizes, s.Tuner().State().Live
		s.Stop()

		tr := specTrace(t, tc.workload, seed)
		geo := model.NewFixed(tc.b)
		c, err := buildPolicy(tc.policy, tc.k, geo, seed)
		if err != nil {
			t.Fatal(err)
		}
		tn, err := autotune.New(autotune.Config{K: tc.k, B: tc.b, Window: tc.window})
		if err != nil {
			t.Fatal(err)
		}
		want := autotune.Drive(c, tn, tr, autotune.DefaultApplyStride)
		wantLive := c.(cachesim.LayerResizable).ItemLayerTarget()

		if got != want {
			t.Errorf("%s: server stats diverge from Drive:\n got %+v\nwant %+v", name, got, want)
		}
		if wantResizes := tn.State().Resizes; gotResizes != wantResizes {
			t.Errorf("%s: server applied %d resizes, Drive %d", name, gotResizes, wantResizes)
		}
		if gotLive != wantLive || tn.State().Live != wantLive {
			t.Errorf("%s: server live target %d, Drive's tuner %d and cache %d", name, gotLive, tn.State().Live, wantLive)
		}
		if gotResizes < 1 {
			t.Errorf("%s: no resize applied, so the differential covers observation only", name)
		}
		t.Logf("%s: %d resizes, live target %d", name, gotResizes, gotLive)
	}
}

// TestAutotuneReplayResizes drives the full replay loop: a cyclic
// scan of 48 items over a k=64 even split (B=1, so the block layer can
// never pay) must push the controller to i=k, applied live at a replay
// batch boundary and visible on the dashboard and /metrics.
func TestAutotuneReplayResizes(t *testing.T) {
	s := newTestServer(t, Config{
		Addr: "127.0.0.1:0", K: 64, B: 1, Policy: "iblp", Loop: true,
		Autotune: true, AutotuneWindow: 96,
	}, "cyclic:n=48,len=50000")
	if s.tuner == nil {
		t.Fatal("no tuner with Autotune on")
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for s.Tuner().State().Resizes < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no resize applied within 10s: %+v", s.Tuner().State())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := s.Tuner().State(); st.Live != 64 {
		t.Fatalf("resized to i=%d, want the pure item layer 64: %+v", st.Live, st)
	}
	var liveTarget int
	s.sharded.WithShardCache(0, func(c cachesim.Cache) {
		liveTarget = c.(cachesim.LayerResizable).ItemLayerTarget()
	})
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

// TestAutotuneResizesOnShortLoop: the replay polls the tuner every 256
// accesses counted across loop passes, so a looping trace shorter than
// that still has its proposals applied.
func TestAutotuneResizesOnShortLoop(t *testing.T) {
	s := newTestServer(t, Config{
		Addr: "127.0.0.1:0", K: 64, B: 1, Policy: "iblp", Loop: true,
		Autotune: true, AutotuneWindow: 96,
	}, "cyclic:n=48,len=240")
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for s.Tuner().State().Resizes < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no resize applied within 10s: %+v", s.Tuner().State())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := s.Tuner().State(); st.Live != 64 {
		t.Fatalf("resized to i=%d, want the pure item layer 64: %+v", st.Live, st)
	}
}

// TestAutotuneConfigRejections pins the wiring's error paths: sharded
// replay and non-resizable policies cannot be autotuned.
func TestAutotuneConfigRejections(t *testing.T) {
	base := Config{Addr: ":0", K: 64, B: 8, Autotune: true}
	tr := specTrace(t, "cyclic:n=48,len=1000", 0)

	sharded := base
	sharded.Shards = 4
	if _, err := New(sharded, tr); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("sharded autotune accepted (err=%v)", err)
	}

	for _, p := range []string{"item-lru", "block-lru", "gcm"} {
		c := base
		c.Policy = p
		if _, err := New(c, tr); err == nil || !strings.Contains(err.Error(), "resizing") {
			t.Errorf("policy %s accepted for autotune (err=%v)", p, err)
		}
	}

	cluster := base
	cluster.Policy = "item-lru"
	cluster.ClusterRing = writeRingFile(t, "127.0.0.1:9101")
	cluster.ClusterAddr = "127.0.0.1:9101"
	if _, err := New(cluster, nil); err == nil || !strings.Contains(err.Error(), "resizing") {
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

	resized := func() bool { return s1.Tuner().State().Resizes+s2.Tuner().State().Resizes >= 1 }
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
