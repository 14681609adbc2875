package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// newTestServer builds a server that replays the workload spec (a
// 20,000-request blockruns trace when spec is "") generated at cfg.Seed.
func newTestServer(t *testing.T, cfg Config, spec string) *Server {
	t.Helper()
	if cfg.K == 0 {
		cfg.K = 256
	}
	if cfg.B == 0 {
		cfg.B = 8
	}
	if spec == "" {
		spec = "blockruns:blocks=128,B=8,run=4,len=20000"
	}
	s, err := New(cfg, specTrace(t, spec, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// specTrace generates the workload spec at seed.
func specTrace(t *testing.T, spec string, seed int64) trace.Trace {
	t.Helper()
	tr, err := workload.FromSpec(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// buildPolicy builds one instance of the named policy at capacity k,
// as the server builds its shards: the reference the differential
// tests replay without a server.
func buildPolicy(name string, k int, geo model.Geometry, seed int64) (cachesim.Cache, error) {
	build, err := core.ByName(name, geo, seed)
	if err != nil {
		return nil, err
	}
	return build(k), nil
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestProbeServeEndpoints is the acceptance smoke test: gcserve must
// serve live metrics and pprof over HTTP during a replay.
func TestProbeServeEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Policy: "iblp", Loop: true, Rate: 200000}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	addr, err := s.Start() // also spins up its own listener; we use ts for requests
	if err != nil {
		t.Fatal(err)
	}
	_ = addr
	defer s.Stop()

	// Poll until the looping replay has produced accesses — the metrics
	// below must be observed *live*, mid-replay.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Accesses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replay produced no accesses within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body = get(t, ts.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("/: status %d", code)
	}
	for _, want := range []string{"gcserve —", "event counters", "miss-ratio", "endpoints:"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if acc, ok := m["accesses"].(float64); !ok || acc <= 0 {
		t.Errorf("metrics accesses = %v, want > 0", m["accesses"])
	}
	if _, ok := m["events.block-load"]; !ok {
		t.Error("metrics missing per-kind event counters")
	}

	code, body = get(t, ts.URL+"/events")
	if code != http.StatusOK || !strings.Contains(body, "seq=") {
		t.Errorf("/events: %d, want seq= lines, got:\n%.200s", code, body)
	}

	code, _ = get(t, ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", code)
	}

	code, body = get(t, ts.URL+"/404-nothing-here")
	if code != http.StatusNotFound {
		t.Errorf("unknown path: status %d body %q", code, body)
	}
}

// TestProbeServeSharded covers the lock-striped mode: shard lock
// traffic must appear on the dashboard and in the metrics.
func TestProbeServeSharded(t *testing.T) {
	s := newTestServer(t, Config{Policy: "gcm", Shards: 4, Streams: 4}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Wait() // one full pass
	defer s.Stop()

	if st := s.Stats(); st.Accesses != 20000 {
		t.Fatalf("replayed %d accesses, want 20000", st.Accesses)
	}
	_, body := get(t, ts.URL+"/")
	if !strings.Contains(body, "shard lock traffic") {
		t.Error("dashboard missing shard lock traffic section")
	}
	_, body = get(t, ts.URL+"/metrics")
	if !strings.Contains(body, "shard.0.acquired") {
		t.Error("metrics missing per-shard counters")
	}
}

// TestProbeServeRateHoldsOnShortLoops: Rate throttles once per batch
// of accesses counted across loop passes, so a looping stream shorter
// than a batch is held to its rate like a long one, with one shard and
// with four streams over two.
func TestProbeServeRateHoldsOnShortLoops(t *testing.T) {
	const rate = 1000 // accesses/second per stream
	for _, tc := range []struct {
		spec string
		cfg  Config
	}{
		{"cyclic:n=96,len=200", Config{}},
		{"cyclic:n=96,len=800", Config{Shards: 2, Streams: 4}},
	} {
		cfg := tc.cfg
		cfg.Addr, cfg.K, cfg.B, cfg.Policy, cfg.Loop, cfg.Rate = "127.0.0.1:0", 64, 8, "iblp", true, rate
		s := newTestServer(t, cfg, tc.spec)
		start := time.Now()
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Millisecond)
		got := s.Stats().Accesses
		elapsed := time.Since(start)
		s.Stop()
		// A stream runs at most one batch ahead of its schedule, so 10×
		// the rate is a wide margin.
		if limit := 10 * rate * float64(s.cfg.Streams) * elapsed.Seconds(); float64(got) > limit {
			t.Errorf("%s, %d streams: %d accesses in %v, over 10× the rate (%.0f)",
				tc.spec, s.cfg.Streams, got, elapsed.Round(time.Millisecond), limit)
		}
	}
}

// TestProbeServeSweep exercises the on-demand observed sweep page.
func TestProbeServeSweep(t *testing.T) {
	s := newTestServer(t, Config{Policy: "item-lru"}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, body := get(t, ts.URL+"/sweep")
	for _, want := range []string{"on-demand sweep", "miss-ratio=", "workers", "imbalance="} {
		if !strings.Contains(body, want) {
			t.Errorf("/sweep missing %q:\n%s", want, body)
		}
	}
}

func TestProbeServeConfigErrors(t *testing.T) {
	tr := specTrace(t, "sequential:len=10", 0)
	if _, err := New(Config{K: 0, B: 8}, tr); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(Config{K: 64, B: 0}, tr); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := New(Config{K: 64, B: 8, Policy: "bogus"}, tr); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(Config{K: 64, B: 8}, nil); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestProbeServeMissGapMetrics: at every shard count /metrics serves
// the miss-gap keys from the suite's InterMissGap probe, exactly when the
// suite has one, load_burst_mean as ItemsLoaded / Misses, and
// shard.N.acquired and shard.N.contended for each shard. Runs at one and
// two shards serve the same keys but for the shard.N ones.
func TestProbeServeMissGapMetrics(t *testing.T) {
	for _, spec := range []string{"gaps", "counters"} {
		var engineKeys [2]string
		for i, shards := range []int{1, 2} {
			name := fmt.Sprintf("%s/shards=%d", spec, shards)
			s := newTestServer(t, Config{Policy: "iblp", Probe: spec, Addr: "127.0.0.1:0", Shards: shards}, "")
			if _, err := s.Start(); err != nil {
				t.Fatal(err)
			}
			s.Wait() // the replay does not loop
			ts := httptest.NewServer(s.Handler())
			_, body := get(t, ts.URL+"/metrics")
			ts.Close()
			s.Stop()
			var m map[string]any
			if err := json.Unmarshal([]byte(body), &m); err != nil {
				t.Fatalf("%s: /metrics is not JSON: %v", name, err)
			}
			var keys []string
			for k := range m {
				if !strings.HasPrefix(k, "shard.") {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			engineKeys[i] = strings.Join(keys, " ")
			for n := 0; n < shards; n++ {
				for _, k := range []string{fmt.Sprintf("shard.%d.acquired", n), fmt.Sprintf("shard.%d.contended", n)} {
					if _, ok := m[k]; !ok {
						t.Errorf("%s: /metrics missing %s", name, k)
					}
				}
			}

			st := s.Stats()
			if st.Misses == 0 {
				t.Fatalf("%s: replay had no misses", name)
			}
			if got, want := m["load_burst_mean"], float64(st.ItemsLoaded)/float64(st.Misses); got != want {
				t.Errorf("%s: load_burst_mean = %v, want ItemsLoaded/Misses = %v", name, got, want)
			}
			gaps := s.Suite().Gaps
			if gaps == nil {
				for _, k := range []string{"miss_gap_p50", "miss_gap_p99", "miss_gap_mean"} {
					if v, ok := m[k]; ok {
						t.Errorf("%s: %s = %v served without a gaps probe", name, k, v)
					}
				}
				continue
			}
			h := gaps.Hist()
			if h.Count() != st.Misses {
				t.Errorf("%s: gaps probe saw %d misses, recorder %d", name, h.Count(), st.Misses)
			}
			for k, want := range map[string]float64{
				"miss_gap_p50":  float64(h.Percentile(0.50)),
				"miss_gap_p99":  float64(h.Percentile(0.99)),
				"miss_gap_mean": h.Mean(),
			} {
				if got := m[k]; got != want {
					t.Errorf("%s: %s = %v, want %v from the gaps probe", name, k, got, want)
				}
			}
		}
		if engineKeys[0] != engineKeys[1] {
			t.Errorf("%s: /metrics keys other than shard.N differ by shard count:\n 1 shard:  %s\n 2 shards: %s",
				spec, engineKeys[0], engineKeys[1])
		}
	}
}

// TestProbeServeRefusesTraceOutsideUniverse: a loaded trace is outside
// input, so an item at cachesim.MaxUniverse is refused with an error
// naming it instead of growing the cache to it.
func TestProbeServeRefusesTraceOutsideUniverse(t *testing.T) {
	_, err := New(Config{K: 64, B: 8}, trace.Trace{1, cachesim.MaxUniverse, 2})
	if err == nil || !strings.Contains(err.Error(), "4194304") {
		t.Fatalf("New = %v, want a refusal naming item 4194304", err)
	}
}

// TestProbeServeRefusesTraceFarOutsideUniverse: items whose exclusive
// bound would wrap an int, 1<<63 and 2⁶⁴−1, are refused at load as
// item MaxUniverse is, not handed to the replay goroutine.
func TestProbeServeRefusesTraceFarOutsideUniverse(t *testing.T) {
	for _, it := range []model.Item{1 << 63, ^model.Item(0)} {
		want := fmt.Sprintf("item %d is outside the universe", it)
		if _, err := New(Config{K: 64, B: 8}, trace.Trace{1, it, 2}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("item %d: New = %v, want a refusal naming it", it, err)
		}
	}
}
