// Package serve is the live-observation harness behind cmd/gcserve: it
// replays a workload (optionally forever) through a lock-striped
// concurrent.Sharded with the full probe suite attached — one shard
// replays the trace as one stream, more shards split it across
// concurrent streams — or serves as one node of a cache ring, and
// exposes what the probes see over HTTP: a plain-text dashboard,
// expvar-style JSON metrics, the raw event log, a sweep-engine demo,
// and the standard pprof profiles.
//
// The package sits at the top of the observability import DAG (it may
// import policies, the simulator, and probes; nothing imports it), so
// the hot paths it observes never know it exists.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gccache/internal/autotune"
	"gccache/internal/cachesim"
	"gccache/internal/cluster"
	"gccache/internal/cluster/ring"
	"gccache/internal/concurrent"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/trace"
)

// Config describes one gcserve replay.
type Config struct {
	Addr    string // listen address, e.g. ":8080" or "127.0.0.1:0"
	K       int    // cache size in items
	B       int    // block size
	Policy  string // a name core.ByName accepts; default iblp
	Source  string // what the trace is, for the dashboard: "workload: <spec>" or "trace: <file>"
	Seed    int64
	Shards  int    // lock-striped shards of the replay cache (power of two); 0 means 1
	Streams int    // concurrent client streams when Shards > 1 (default 4); one shard replays one stream
	Probe   string // probe suite spec (obs.NewSuite); default "all"
	Loop    bool   // replay the trace forever instead of once
	Rate    int    // accesses/second per stream; 0 = unthrottled

	// Autotune attaches the §5.3 shadow-cache controller: candidate
	// layer splits are shadowed off the live probe stream and winning
	// splits are applied to the live policy as layer-resize moves. It
	// requires a resizable policy (iblp, adaptive) and one shard.
	// Disabled (the default), the replay path is byte-identical to a
	// server built without it — serve_test.go holds it to that.
	Autotune bool
	// AutotuneWindow overrides the controller's decision window in
	// requests (0 = the autotune package default).
	AutotuneWindow int

	// ClusterRing switches the server into cluster-node mode: instead
	// of replaying a local workload, it serves cache traffic from
	// gcload -cluster clients as one member of the ring file at this
	// path. ClusterAddr is this node's wire address and must appear in
	// the ring file (it is how the node finds its handoff successor).
	ClusterRing string
	ClusterAddr string
}

// Server replays the configured workload and serves the probe suite's
// view of it.
type Server struct {
	cfg   Config
	geo   model.Geometry
	tr    trace.Trace
	suite *obs.Suite
	fan   *eventFan
	start time.Time

	build   func(k int) cachesim.Cache // the configured policy at capacity k
	sharded *concurrent.Sharded        // the replay cache; nil in cluster mode

	node      *cluster.Node // cluster mode: the wire-serving ring member
	ringNodes []string      // cluster mode: the static ring membership

	// tuner is the §5.3 closed-loop controller (nil unless
	// cfg.Autotune). It rides the probe Multi; proposals are pulled —
	// the replay polls at batch boundaries under shard 0's mutex,
	// cluster mode from Tuner.ApplyLoop under the node's apply mutex.
	tuner *autotune.Tuner

	httpSrv      *http.Server
	listener     net.Listener
	cancel       context.CancelFunc
	wg           sync.WaitGroup
	shuttingDown atomic.Bool
}

// New builds a Server from cfg that replays tr: it builds the sharded
// cache and attaches the probe suite. In cluster mode tr is unused.
// Nothing runs until Start.
func New(cfg Config, tr trace.Trace) (*Server, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("serve: cache size %d < 1", cfg.K)
	}
	if cfg.B < 1 {
		return nil, fmt.Errorf("serve: block size %d < 1", cfg.B)
	}
	if cfg.Policy == "" {
		cfg.Policy = "iblp"
	}
	if cfg.Probe == "" {
		cfg.Probe = "all"
	}
	cfg.Shards = max(1, cfg.Shards)
	switch {
	case cfg.Shards == 1:
		cfg.Streams = 1 // one shard replays the trace as one stream
	case cfg.Streams < 1:
		cfg.Streams = 4
	}
	s := &Server{cfg: cfg, geo: model.NewFixed(cfg.B), tr: tr}

	var err error
	if s.build, err = core.ByName(cfg.Policy, s.geo, cfg.Seed); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if s.suite, err = obs.NewSuite(cfg.Probe); err != nil {
		return nil, err
	}
	tunerCfg := autotune.Config{K: cfg.K, B: cfg.B, Window: cfg.AutotuneWindow}
	s.fan = newEventFan()
	probe := obs.Multi{s.suite, s.fan}

	if cfg.ClusterRing != "" {
		// Cluster-node mode: no local replay — the traffic arrives over
		// the wire. The node's recorder and cache carry the same probe
		// suite, so the dashboard and event stream observe ring traffic
		// live.
		if s.ringNodes, err = ring.LoadFile(cfg.ClusterRing); err != nil {
			return nil, err
		}
		listed := false
		for _, n := range s.ringNodes {
			listed = listed || n == cfg.ClusterAddr
		}
		if !listed {
			return nil, fmt.Errorf("serve: cluster addr %q is not in ring file %s (nodes: %v)",
				cfg.ClusterAddr, cfg.ClusterRing, s.ringNodes)
		}
		// With autotune on, a throwaway build proves the policy is
		// resizable before any node cache exists.
		if cfg.Autotune {
			if s.tuner, err = autotune.NewLive(tunerCfg, s.build(cfg.K)); err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			probe = append(probe, s.tuner)
		}
		s.node, err = cluster.NewNode(cluster.NodeConfig{
			Addr: cfg.ClusterAddr, K: cfg.K, B: cfg.B,
			NewCache: func() cachesim.Cache { return s.build(cfg.K) },
		})
		if err != nil {
			return nil, err
		}
		s.node.SetProbe(probe)
		return s, nil
	}

	if len(s.tr) == 0 {
		return nil, fmt.Errorf("serve: empty trace")
	}
	// The caches' dense structures grow with the largest item ID they
	// see, so a loaded trace is held to the bound Replay applies.
	if err := cachesim.CheckUniverse(s.tr.MaxItem()); err != nil {
		return nil, fmt.Errorf("serve: trace: %w", err)
	}

	if cfg.Autotune && cfg.Shards > 1 {
		// Each shard is an independent cache at k/shards; one global
		// split controller has no meaningful target there.
		return nil, fmt.Errorf("serve: -autotune requires shards=1 (got %d)", cfg.Shards)
	}
	if s.sharded, err = concurrent.NewSharded(cfg.Shards, cfg.K, s.geo, s.build); err != nil {
		return nil, err
	}
	if cfg.Autotune {
		s.sharded.WithShardCache(0, func(c cachesim.Cache) {
			s.tuner, err = autotune.NewLive(tunerCfg, c)
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		probe = append(probe, s.tuner)
	}
	s.sharded.SetProbe(probe)
	return s, nil
}

// Start begins listening on cfg.Addr, starts the cluster node when
// configured, and launches the replay goroutines. It returns the bound
// HTTP address (useful with port 0). Every error return closes any
// listener already bound, so a failed Start never strands a port — the
// regression test in serve_cluster_test.go holds it to that.
func (s *Server) Start() (string, error) {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", err
	}
	if s.node != nil {
		if _, err := s.node.Start(); err != nil {
			l.Close()
			return "", err
		}
	}
	s.listener = l
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(l) //nolint:errcheck // Serve always returns on Close

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if s.node != nil && s.tuner != nil {
		// Node.WithCache holds the mutex that serializes wire batches.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.tuner.ApplyLoop(ctx, s.node.WithCache)
		}()
	}
	s.startReplay(ctx)
	s.start = time.Now()
	return l.Addr().String(), nil
}

// NodeAddr returns the cluster node's wire address, or "" outside
// cluster mode.
func (s *Server) NodeAddr() string {
	if s.node == nil {
		return ""
	}
	return s.node.Addr()
}

// DrainAndHandoff takes the cluster node out of the ring gracefully:
// it stops accepting new batches (clients fail over immediately), then
// streams its cache state to the ring successor so the warm set and
// accounting survive the departure. Outside cluster mode it is a no-op.
func (s *Server) DrainAndHandoff(timeout time.Duration) error {
	if s.node == nil {
		return nil
	}
	s.node.Drain()
	r, err := ring.New(s.ringNodes, cluster.DefaultReplicas, s.cfg.Seed)
	if err != nil {
		return err
	}
	succ, ok := r.Successor(s.cfg.ClusterAddr)
	if !ok {
		return nil // single-node ring: nowhere to hand off, state retires
	}
	return s.node.HandoffTo(succ, timeout)
}

// Stop halts the replay and the HTTP server immediately, abandoning
// in-flight responses. Prefer Shutdown for interactive use.
func (s *Server) Stop() {
	s.shuttingDown.Store(true)
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
	s.fan.CloseAll()
	if s.node != nil {
		s.node.Close()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
}

// Shutdown halts the replay, disconnects event-stream subscribers, and
// drains in-flight HTTP responses until ctx ends, at which point the
// remaining connections are forcibly closed. While draining, /healthz
// reports the server as shutting down so probes stop routing to it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shuttingDown.Store(true)
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
	s.fan.CloseAll()
	if s.node != nil {
		s.node.Close()
	}
	if s.httpSrv == nil {
		return nil
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		s.httpSrv.Close()
		return err
	}
	return nil
}

// Health reports whether the server is fully healthy, plus the reasons
// it is degraded when not: shutting down, or shedding events to slow
// stream consumers.
func (s *Server) Health() (bool, []string) {
	var reasons []string
	if s.shuttingDown.Load() {
		reasons = append(reasons, "shutting down")
	}
	if n := s.fan.Dropped(); n > 0 {
		reasons = append(reasons, fmt.Sprintf("event stream shed %d events to slow consumers", n))
	}
	sort.Strings(reasons)
	return len(reasons) == 0, reasons
}

// Ready reports whether the server should receive new traffic: alive,
// not shutting down, not degraded, and — in cluster mode — with the
// node accepting batches. Liveness (Health) and readiness differ
// exactly while draining: the process is healthy enough to finish
// in-flight work but must not be routed anything new.
func (s *Server) Ready() (bool, []string) {
	ok, reasons := s.Health()
	if s.node != nil && !s.node.Ready() {
		ok = false
		reasons = append(reasons, "cluster node draining")
		sort.Strings(reasons)
	}
	return ok, reasons
}

// Wait blocks until the replay goroutines finish (immediately useful
// only for non-looping replays).
func (s *Server) Wait() { s.wg.Wait() }

// startReplay launches one replay goroutine per stream, none in
// cluster mode (the traffic comes over the wire).
func (s *Server) startReplay(ctx context.Context) {
	if s.node != nil {
		return
	}
	// With autotune on (one shard, one stream), pending resize proposals
	// are applied at batch boundaries under shard 0's mutex, the lock
	// that serializes Access, as cachesim.LayerResizable requires.
	var onBatch func()
	if s.tuner != nil {
		apply := func(c cachesim.Cache) { s.tuner.Apply(c.(cachesim.LayerResizable)) }
		onBatch = func() { s.sharded.WithShardCache(0, apply) }
	}
	streams := []trace.Trace{s.tr} // one stream replays the trace itself, uncopied
	if s.cfg.Streams > 1 {
		streams = concurrent.SplitStreams(s.tr, s.cfg.Streams)
	}
	for _, st := range streams {
		s.wg.Add(1)
		go func(tr trace.Trace) {
			defer s.wg.Done()
			s.replayStream(ctx, tr, onBatch)
		}(st)
	}
}

// replayStream replays tr through the cache, looping when configured,
// and once per batch of accesses — counted across loop passes, so a
// trace shorter than a batch still reaches one — runs onBatch (when
// non-nil), checks ctx and throttles.
func (s *Server) replayStream(ctx context.Context, tr trace.Trace, onBatch func()) {
	const batch = 256
	var pause time.Duration
	if s.cfg.Rate > 0 {
		pause = time.Duration(batch) * time.Second / time.Duration(s.cfg.Rate)
	}
	n := 0
	for {
		for _, it := range tr {
			s.sharded.Access(it)
			if n++; n%batch != 0 {
				continue
			}
			if onBatch != nil {
				onBatch()
			}
			if ctx.Err() != nil {
				return
			}
			if pause > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(pause):
				}
			}
		}
		if !s.cfg.Loop || ctx.Err() != nil {
			return
		}
	}
}

// Stats returns the merged recorder statistics so far.
func (s *Server) Stats() cachesim.Stats {
	if s.node != nil {
		return s.node.Stats()
	}
	return s.sharded.Stats()
}

// Suite exposes the attached probe suite.
func (s *Server) Suite() *obs.Suite { return s.suite }

// Tuner exposes the autotune controller, or nil when Autotune is off.
func (s *Server) Tuner() *autotune.Tuner { return s.tuner }

// Handler returns the HTTP surface: the dashboard at /, JSON metrics
// at /metrics, the event log at /events, a live sweep-engine demo at
// /sweep, a health check at /healthz, and pprof under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleDashboard)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/events/stream", s.handleEventStream)
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	st := s.Stats()
	fmt.Fprintf(w, "gcserve — %s  k=%d B=%d shards=%d\n", st.Policy, s.cfg.K, s.cfg.B, s.cfg.Shards)
	if s.node != nil {
		fmt.Fprintf(w, "cluster: node %s in ring %s (%d nodes)\n", s.node.Addr(), s.cfg.ClusterRing, len(s.ringNodes))
	} else {
		fmt.Fprintf(w, "%s (%d requests%s, seed %d)\n", s.cfg.Source, len(s.tr), loopSuffix(s.cfg.Loop), s.cfg.Seed)
	}
	fmt.Fprintf(w, "uptime: %v\n\n", time.Since(s.start).Round(time.Millisecond))
	fmt.Fprintf(w, "accesses=%d hits=%d misses=%d miss-ratio=%.4f temporal=%d spatial=%d\n\n",
		st.Accesses, st.Hits, st.Misses, st.MissRatio(), st.TemporalHits, st.SpatialHits)
	if _, err := s.suite.WriteTo(w); err != nil {
		return
	}
	if s.tuner != nil {
		fmt.Fprintf(w, "\n")
		if _, err := s.tuner.WriteTo(w); err != nil {
			return
		}
	}
	if s.sharded != nil {
		fmt.Fprintf(w, "\n== shard lock traffic ==\n")
		for i, l := range s.sharded.ShardLoads() {
			ratio := 0.0
			if l.Acquired > 0 {
				ratio = float64(l.Contended) / float64(l.Acquired)
			}
			fmt.Fprintf(w, "shard %d: acquired=%d contended=%d (%.2f%%)\n", i, l.Acquired, l.Contended, 100*ratio)
		}
	}
	fmt.Fprintf(w, "\nendpoints: /metrics /events /events/stream /sweep /healthz /readyz /debug/pprof/\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	m := map[string]any{
		"policy":         st.Policy,
		"accesses":       st.Accesses,
		"hits":           st.Hits,
		"misses":         st.Misses,
		"miss_ratio":     st.MissRatio(),
		"temporal_hits":  st.TemporalHits,
		"spatial_hits":   st.SpatialHits,
		"items_loaded":   st.ItemsLoaded,
		"evictions":      st.Evictions,
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	snap := s.suite.Counters.Snapshot()
	for k := 0; k < obs.NumKinds; k++ {
		m["events."+obs.Kind(k).String()] = snap[k]
	}
	m["stream.subscribers"] = s.fan.Subscribers()
	m["stream.dropped"] = s.fan.Dropped()
	if s.tuner != nil {
		ts := s.tuner.State()
		m["autotune.windows"] = ts.Windows
		m["autotune.requests"] = ts.Requests
		m["autotune.skipped"] = ts.Skipped
		m["autotune.resizes"] = ts.Resizes
		m["autotune.live_target"] = ts.Live
		m["autotune.formula_target"] = ts.Formula
		m["autotune.working_set"] = ts.WorkingSet
		m["autotune.winner"] = ts.Winner
		m["autotune.pending"] = ts.Pending
	}
	healthy, reasons := s.Health()
	m["healthy"] = healthy
	if len(reasons) > 0 {
		m["degraded_reasons"] = reasons
	}
	if s.node != nil {
		m["cluster.node"] = s.node.Addr()
		m["cluster.ring_nodes"] = len(s.ringNodes)
		m["cluster.draining"] = s.node.Draining()
	} else {
		for i, l := range s.sharded.ShardLoads() {
			m[fmt.Sprintf("shard.%d.acquired", i)] = l.Acquired
			m[fmt.Sprintf("shard.%d.contended", i)] = l.Contended
		}
		if g := s.suite.Gaps; g != nil {
			m["miss_gap_p50"] = g.Hist().Percentile(0.50)
			m["miss_gap_p99"] = g.Hist().Percentile(0.99)
			m["miss_gap_mean"] = g.Hist().Mean()
		}
		// The Recorder counts loads only on misses, so this is the mean
		// number of items per unit-cost block load.
		burst := 0.0
		if st.Misses > 0 {
			burst = float64(st.ItemsLoaded) / float64(st.Misses)
		}
		m["load_burst_mean"] = burst
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m) //nolint:errcheck // client gone
}

// handleHealthz is the liveness probe: it answers 200 whenever the
// process is up and serving HTTP — including while draining, when
// in-flight work must be allowed to finish. Degradation reasons are
// listed informationally; the routing decision lives in /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	ok, reasons := s.Health()
	if ok {
		fmt.Fprintln(w, "ok")
		return
	}
	fmt.Fprintln(w, "degraded")
	for _, r := range reasons {
		fmt.Fprintf(w, "- %s\n", r)
	}
}

// handleReadyz is the readiness probe: 200 only while the server
// should receive new traffic. Shutting down, degraded, or (cluster
// mode) draining all answer 503 with one reason per line, so
// orchestration stops routing before the drain deadline cuts
// connections.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	ok, reasons := s.Ready()
	if ok {
		fmt.Fprintln(w, "ready")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "not ready")
	for _, r := range reasons {
		fmt.Fprintf(w, "- %s\n", r)
	}
}

// handleEventStream streams live probe records, one line per record, in
// the same format as /events. Each subscriber gets a bounded buffer;
// when the client reads too slowly events are shed (never blocking the
// replay) and the gap shows up as a jump in seq plus a drop count in
// /metrics and /healthz.
func (s *Server) handleEventStream(w http.ResponseWriter, r *http.Request) {
	if s.shuttingDown.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	sub, cancel := s.fan.Subscribe(1024)
	defer cancel()
	writeEvent := func(e obs.LoggedEvent) bool {
		_, err := fmt.Fprintln(w, e)
		return err == nil
	}
	for {
		// Control-plane events (the non-sheddable ring) drain ahead of
		// buffered data, so a resize is on the wire before the data
		// events that follow it — even mid-flood.
		for {
			e, ok := sub.popCtrl()
			if !ok {
				break
			}
			if !writeEvent(e) {
				return
			}
		}
		if flusher != nil && len(sub.ch) == 0 {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub.notify:
			// Loop back to drain the control ring.
		case e, open := <-sub.ch:
			if !open {
				return // shutdown disconnected us
			}
			if !writeEvent(e) {
				return
			}
		}
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.suite.Events == nil {
		fmt.Fprintln(w, "event log disabled (enable with -probe events=N or all)")
		return
	}
	s.suite.Events.WriteTo(w) //nolint:errcheck // client gone
}

// handleSweep runs a small observed parameter sweep on demand — a live
// demonstration of the chunked sweep engine's per-worker steal counts
// and timing, on real per-policy miss-ratio work.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	tr := s.tr
	if len(tr) > 1<<14 {
		tr = tr[:1<<14]
	}
	sizes := make([]int, 24)
	for i := range sizes {
		sizes[i] = (i + 1) * max(1, s.cfg.K/len(sizes))
	}
	results := make([]float64, len(sizes))
	var st cachesim.SweepStats
	err := cachesim.Sweep(r.Context(), len(sizes), cachesim.SweepOptions{Stats: &st},
		func() struct{} { return struct{}{} },
		func(i int, _ struct{}) {
			c := s.build(sizes[i])
			if rs, err := cachesim.Replay(r.Context(), c, trace.NewSliceSource(tr), cachesim.ReplayOptions{}); err == nil {
				results[i] = rs.MissRatio()
			}
		})
	if err != nil {
		return // the client went away
	}
	fmt.Fprintf(w, "on-demand sweep: %s miss ratio over %d cache sizes, %d requests each\n\n",
		s.cfg.Policy, len(sizes), len(tr))
	for i, k := range sizes {
		fmt.Fprintf(w, "k=%-8d miss-ratio=%.4f\n", k, results[i])
	}
	fmt.Fprintf(w, "\n%s", st.String())
}

func loopSuffix(loop bool) string {
	if loop {
		return ", looping"
	}
	return ""
}
