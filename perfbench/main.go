// Command perfbench is the repository benchmark. Run it from the
// repository root, which holds scenarios/. It generates one
// workload's requests from a seed, drives the simulator, the in-process
// serving engine or the loopback cluster through their public
// functions, checks every output, and prints one JSON result object as
// its last line of output. run.py builds and runs it; README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defs lists every metric the benchmark reports, with its unit and base.
// BENCHMARK.json names the same metrics.
var defs = map[string]def{
	// End to end: the untraced run (--trace 0).
	"setup_s":        {"s", "one set-up: input generation and cache, engine and node construction; median of 9"},
	"req_per_s":      {"1/s", "completed requests per reference second, per sim replay, Engine.Replay or 50 ms of wire"},
	"gcm_req_per_s":  {"1/s", "requests per reference second of one single-goroutine GCM replay of the input"},
	"miss_ratio":     {"loads/req", "block loads per request"},
	"p50_us":         {"us", "one call (sim IBLP replay, Engine.Replay or Client.Do) in reference time"},
	"p90_us":         {"us", "one call (sim IBLP replay, Engine.Replay or Client.Do) in reference time"},
	"cpu_ns_per_req": {"ns", "process user+system CPU per completed request, in reference time"},
	"live_heap_mb":   {"MB", "heap in use after a forced GC at the end of the run, less the kernels' buffers"},

	// Per layer: the traced run (--trace 1).
	"policy.iblp.ns_per_access":        {"ns", "per Access, bare loop over the input, no recorder"},
	"policy.gcm.ns_per_access":         {"ns", "per Access, bare loop over the input, no recorder"},
	"policy.iblp.items_loaded_per_req": {"items/req", "items inserted per request"},
	"policy.iblp.evictions_per_req":    {"items/req", "items evicted per request"},
	"policy.iblp.spatial_hit_frac":     {"ratio", "spatial hits over all hits"},
	"cachesim.run_ns_per_req":          {"ns", "per request of RunColdBounded (policy + recorder)"},
	"cachesim.recorder_ns_per_req":     {"ns", "RunColdBounded minus the bare IBLP Access loop, per request"},
	"cachesim.stream_ns_per_req":       {"ns", "per request of RunColdStreamBounded over a trace.Scanner"},
	"trace.decode_ns_per_item":         {"ns", "per item of a trace.Scanner drained alone"},
	"scenario.ns_per_item":             {"ns", "per item of the compiled scenario Stream drained alone"},
	"concurrent.sharded_ns_per_access": {"ns", "per Sharded.Access from one goroutine"},
	"concurrent.engine_1x1_ns_per_req": {"ns", "per request of Engine.Replay, 1 producer and 1 shard"},
	"concurrent.engine_vs_sequential":  {"ratio", "engine req/s over one-goroutine Sharded.Access req/s, same run"},
	"concurrent.replay_us":             {"us", "one Engine.Replay call over the whole input"},
	"concurrent.accesses_per_lock":     {"count", "accesses per shard lock acquisition (ShardLoads)"},
	"concurrent.contended_frac":        {"ratio", "contended over all shard lock acquisitions (ShardLoads)"},
	"concurrent.cpu_per_wall":          {"ratio", "process CPU seconds per wall second of engine replay"},
	"cluster.health_rtt_us":            {"us", "one Client.Health round trip"},
	"cluster.route_ns_per_batch":       {"ns", "one Client.Route of a 64-item batch"},
	"cluster.items_per_request":        {"count", "acked items per Client.Do"},
	"cluster.attempts_per_request":     {"ratio", "client Attempts over Issued"},
	"cluster.node_load_skew":           {"ratio", "busiest node's accesses over the mean"},
	"cluster.do_p99_us":                {"us", "one Client.Do"},
	"tracing.req_per_s_off":            {"1/s", "the workload's req_per_s in this run with spans off"},
	"tracing.req_per_s_on":             {"1/s", "the workload's req_per_s in this run with spans on"},
	"tracing.overhead_frac":            {"ratio", "1 - req_per_s_on / req_per_s_off"},
}

// bench is one run's configuration.
type bench struct {
	name   string
	spec   workloadSpec
	seed   int64
	window time.Duration
	nproc  int // client streams, producers and shards
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sim-hits, sim-loads, serve or wire")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement window in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", "", "directory for the span log and the full report (empty: none)")
		commit  = flag.String("commit", "unknown", "commit or source fingerprint stamped on the report")
	)
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {sim-hits|sim-loads|serve|wire} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	b := &bench{name: *name, spec: spec, seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)), nproc: procs(runtime.GOMAXPROCS(0))}

	env := map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit, "seed": *seed,
		"workload": *name, "trace": *traced, "seconds": *seconds, "streams": b.nproc,
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("perfbench: env %s\n", envLine)

	initCalibration(b.nproc)
	r := newResult()
	var tr *tracer
	var err error
	if *traced == 1 {
		tr = newTracer()
		err = b.tracedRun(r, tr)
	} else {
		err = b.run(r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeOutputs(*out, b, *traced, env, r, tr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	tr.writeSelfTimes(os.Stdout)
	if err := r.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// writeOutputs writes the full report (environment, and every metric's
// median and quartiles) and, for a traced run, the span log.
func writeOutputs(dir string, b *bench, traced int, env map[string]any, r *result, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", b.name, b.seed, traced))
	rep, err := json.MarshalIndent(map[string]any{
		"env": env, "attempted": r.attempted, "failed": r.failed, "metrics": r.report(),
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(rep, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.writeFile(stem + ".spans.jsonl")
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still in use after a forced collection, less
// the reference kernels' buffers.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int(ms.HeapAlloc)-8*len(calBufs)*len(calBufs[0])) / 1e6
}

// cpuModel reads the processor name for the environment fingerprint.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
