// Command gcserve replays a workload or trace with the full probe
// suite attached and serves the live view over HTTP: a plain-text
// dashboard at /, JSON metrics at /metrics, the raw event log at
// /events, an observed parameter sweep at /sweep, and pprof profiles
// under /debug/pprof/.
//
// Usage:
//
//	gcserve -addr :8080 -k 4096 -B 64 -policy iblp -loop
//	gcserve -addr :8080 -policy gcm -trace requests.gct
//
// Then: curl localhost:8080/ for the dashboard.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gccache/internal/cli"
	"gccache/internal/obs"
	"gccache/internal/obs/serve"
	"gccache/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		k         = flag.Int("k", 4096, "cache size in items")
		B         = flag.Int("B", 64, "block size")
		policyArg = flag.String("policy", "iblp", "policy: item-lru, block-lru, iblp, gcm, adaptive")
		spec      = flag.String("workload", "blockruns:blocks=512,B=64,run=16,len=200000", workload.SpecHelp)
		traceFile = flag.String("trace", "", "read a gctrace binary file instead of generating a workload")
		seed      = flag.Int64("seed", 1, "workload / policy seed")
		shards    = flag.Int("shards", 1, "replay through this many lock-striped shards (power of two; 1 replays the trace as one stream)")
		streams   = flag.Int("streams", 4, "concurrent client streams when -shards > 1")
		probeSpec = flag.String("probe", "all", obs.SpecHelp)
		loop      = flag.Bool("loop", false, "replay the trace forever instead of once")
		rate      = flag.Int("rate", 0, "accesses/second per stream (0 = unthrottled)")
		duration  = flag.Duration("duration", 0, "stop after this long (0 = run until interrupted)")
		drain     = flag.Duration("drain", 5*time.Second, "grace period for in-flight responses on shutdown")
		selfcheck = flag.Bool("selfcheck", false, "start on an ephemeral port, probe own endpoints, and exit")

		autotune       = flag.Bool("autotune", false, "close the §5.3 loop: shadow candidate layer splits and apply winning resizes live (iblp/adaptive, shards=1)")
		autotuneWindow = flag.Int("autotune-window", 0, "autotune decision window in requests (0 = default)")

		clusterMode = flag.Bool("cluster", false, "serve as a cache-ring node (requires -ring and -cluster-addr; disables local replay)")
		ringFile    = flag.String("ring", "", "cluster mode: static ring file, one node address per line")
		clusterAddr = flag.String("cluster-addr", "", "cluster mode: this node's wire address (must appear in the ring file)")
	)
	cli.SetUsage("gcserve", "serve live cache-replay metrics, event logs, and pprof over HTTP")
	flag.Parse()

	cfg := serve.Config{
		Addr:      *addr,
		K:         *k,
		B:         *B,
		Policy:    *policyArg,
		Workload:  *spec,
		TraceFile: *traceFile,
		Seed:      *seed,
		Shards:    *shards,
		Streams:   *streams,
		Probe:     *probeSpec,
		Loop:      *loop,
		Rate:      *rate,

		Autotune:       *autotune,
		AutotuneWindow: *autotuneWindow,
	}
	if *clusterMode {
		if *ringFile == "" || *clusterAddr == "" {
			cli.Fatalf("gcserve", "-cluster requires -ring and -cluster-addr")
		}
		cfg.ClusterRing, cfg.ClusterAddr = *ringFile, *clusterAddr
	}
	if *selfcheck {
		cfg.Addr = "127.0.0.1:0"
		cfg.Loop = false
	}
	srv, err := serve.New(cfg)
	if err != nil {
		cli.Fatal("gcserve", err)
	}
	bound, err := srv.Start()
	if err != nil {
		cli.Fatal("gcserve", err)
	}
	fmt.Printf("gcserve: listening on http://%s (policy %s, %s)\n", bound, *policyArg, sourceDesc(cfg))
	if cfg.ClusterRing != "" {
		fmt.Printf("gcserve: cluster node %s in ring %s\n", srv.NodeAddr(), cfg.ClusterRing)
	}

	if *selfcheck {
		if err := runSelfcheck(srv, bound, cfg.ClusterRing != ""); err != nil {
			cli.Fatal("gcserve", err)
		}
		srv.Stop()
		fmt.Println("gcserve: selfcheck ok")
		return
	}

	// First SIGINT/SIGTERM: graceful shutdown — stop the replay, keep
	// serving in-flight responses until -drain expires. A second signal
	// during the drain forces an immediate stop.
	interrupt := make(chan os.Signal, 2)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-interrupt:
		case <-time.After(*duration):
		}
	} else {
		<-interrupt
	}
	fmt.Printf("gcserve: shutting down (draining up to %v; interrupt again to force)\n", *drain)
	if *clusterMode {
		// Graceful leave: stop accepting wire traffic, then hand the
		// node's cache state to its ring successor. A failed handoff is
		// reported but does not block shutdown — the state is lost the
		// same way it would be on a crash, which the ring tolerates.
		if err := srv.DrainAndHandoff(*drain); err != nil {
			fmt.Printf("gcserve: handoff failed: %v\n", err)
		} else {
			fmt.Println("gcserve: drained and handed off to ring successor")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			cli.Fatal("gcserve", fmt.Errorf("shutdown: %w", err))
		}
	case <-interrupt:
		srv.Stop()
	}
}

func sourceDesc(cfg serve.Config) string {
	if cfg.TraceFile != "" {
		return "trace " + cfg.TraceFile
	}
	return "workload " + cfg.Workload
}

// runSelfcheck waits for the replay to produce accesses, then fetches
// every endpoint once — the scripted version of the README quickstart.
// In cluster mode there is no local replay, so it only checks that the
// node is up and every probe endpoint answers.
func runSelfcheck(srv *serve.Server, bound string, clustered bool) error {
	if !clustered {
		srv.Wait() // non-looping replay: finishes quickly
	}
	base := "http://" + bound
	for _, path := range []string{"/healthz", "/readyz", "/", "/metrics", "/events", "/sweep", "/debug/pprof/cmdline"} {
		resp, err := http.Get(base + path)
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			return fmt.Errorf("GET %s: empty body", path)
		}
	}
	if clustered {
		return nil // no local replay to account for
	}
	if st := srv.Stats(); st.Accesses == 0 {
		return fmt.Errorf("selfcheck replay produced no accesses")
	}
	return nil
}
