package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.K == 0 {
		cfg.K = 256
	}
	if cfg.B == 0 {
		cfg.B = 8
	}
	if cfg.Workload == "" {
		cfg.Workload = "blockruns:blocks=128,B=8,run=4,len=20000"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
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
	s := newTestServer(t, Config{Policy: "iblp", Loop: true, Rate: 200000})
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
	s := newTestServer(t, Config{Policy: "gcm", Shards: 4, Streams: 4})
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

// TestProbeServeSweep exercises the on-demand observed sweep page.
func TestProbeServeSweep(t *testing.T) {
	s := newTestServer(t, Config{Policy: "item-lru"})
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
	if _, err := New(Config{K: 0, B: 8, Workload: "sequential:len=10"}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(Config{K: 64, B: 8, Policy: "bogus", Workload: "sequential:len=10"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(Config{K: 64, B: 8, Workload: "bogus:x=1"}); err == nil {
		t.Error("bad workload accepted")
	}
	if _, err := New(Config{K: 64, B: 8, Workload: "sequential:len=0"}); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestProbeServeFlatMissGapMetrics: in flat mode /metrics serves the
// miss-gap keys from the suite's InterMissGap probe, exactly when the
// suite has one, and load_burst_mean as ItemsLoaded / Misses.
func TestProbeServeFlatMissGapMetrics(t *testing.T) {
	for _, spec := range []string{"gaps", "counters"} {
		s := newTestServer(t, Config{Policy: "iblp", Probe: spec, Addr: "127.0.0.1:0"})
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
			t.Fatalf("%s: /metrics is not JSON: %v", spec, err)
		}
		st := s.Stats()
		if st.Misses == 0 {
			t.Fatalf("%s: replay had no misses", spec)
		}
		if got, want := m["load_burst_mean"], float64(st.ItemsLoaded)/float64(st.Misses); got != want {
			t.Errorf("%s: load_burst_mean = %v, want ItemsLoaded/Misses = %v", spec, got, want)
		}
		gaps := s.Suite().Gaps
		if gaps == nil {
			for _, k := range []string{"miss_gap_p50", "miss_gap_p99", "miss_gap_mean"} {
				if v, ok := m[k]; ok {
					t.Errorf("%s: %s = %v served without a gaps probe", spec, k, v)
				}
			}
			continue
		}
		h := gaps.Hist()
		if h.Count() != st.Misses {
			t.Errorf("%s: gaps probe saw %d misses, recorder %d", spec, h.Count(), st.Misses)
		}
		for k, want := range map[string]float64{
			"miss_gap_p50":  float64(h.Percentile(0.50)),
			"miss_gap_p99":  float64(h.Percentile(0.99)),
			"miss_gap_mean": h.Mean(),
		} {
			if got := m[k]; got != want {
				t.Errorf("%s: %s = %v, want %v from the gaps probe", spec, k, got, want)
			}
		}
	}
}

// TestProbeServeRefusesTraceOutsideUniverse: a loaded trace is outside
// input, so an item at cachesim.MaxUniverse is refused with an error
// naming it instead of growing the cache to it.
func TestProbeServeRefusesTraceOutsideUniverse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.gctrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := (trace.Trace{1, cachesim.MaxUniverse, 2}).Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{K: 64, B: 8, TraceFile: path})
	if err == nil || !strings.Contains(err.Error(), "4194304") {
		t.Fatalf("New = %v, want a refusal naming item 4194304", err)
	}
}
