// Command gcsim runs one or more policies over a synthetic workload (or
// a trace file) and reports hit/miss statistics with the temporal vs
// spatial split, alongside the offline-optimum bracket.
//
// Usage:
//
//	gcsim -k 4096 -B 64 -workload 'blockruns:blocks=512,B=64,run=16,len=200000'
//	gcsim -k 1024 -B 16 -policy iblp -trace requests.gct
//	gcsim -k 1024 -B 16 -scenario scenarios/drift.gcs
//
// With -scenario the compiled program replays through the streaming
// simulator in O(1) memory; -opt, -probe, and checkpointing need the
// materialized trace and are unavailable on that path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strings"

	"gccache"
	"gccache/internal/cachesim"
	"gccache/internal/checkpoint"
	"gccache/internal/cli"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/opt"
	"gccache/internal/render"
	"gccache/internal/scenario"
	"gccache/internal/trace"
)

// simSnapshotKind tags gcsim checkpoint files: one Stats record per
// completed policy, so a resumed run replays only the remainder.
const simSnapshotKind = "gcsim.policies"

func main() {
	var (
		k         = flag.Int("k", 4096, "cache size in items")
		B         = flag.Int("B", 64, "block size")
		policies  = flag.String("policy", "all", cli.PolicyHelp+"; a comma-separated list, or all for every one in this order")
		in        = cli.NewInput("gcsim", "blockruns:blocks=512,B=64,run=16,len=200000", "trace", true)
		optimal   = flag.Bool("opt", true, "also compute the offline-optimum bracket")
		probeSpec = flag.String("probe", "", "attach probes and dump their view per policy; "+obs.SpecHelp)
		deadline  = flag.Duration("deadline", 0,
			"time budget for the policy replays; on expiry save -checkpoint (if set) and exit 1 (0 = none)")
		ckptPath = flag.String("checkpoint", "",
			"persist per-policy results to this file after each policy completes")
		resume   = flag.Bool("resume", false, "skip policies already completed in -checkpoint")
		autoMode = flag.Bool("autotune", false,
			"§5.3 closed-loop evaluation: replay through the live autotuner and report regret vs the offline-optimal fixed split")
	)
	cli.SetUsage("gcsim", "replay a workload through GC caching policies and report hit/miss statistics")
	flag.Parse()
	if *probeSpec != "" && (*deadline != 0 || *ckptPath != "" || *resume) {
		fatal(fmt.Errorf("-probe cannot be combined with -deadline/-checkpoint/-resume"))
	}
	if *autoMode && (*probeSpec != "" || *deadline != 0 || *ckptPath != "" || *resume) {
		fatal(fmt.Errorf("-autotune cannot be combined with -probe/-deadline/-checkpoint/-resume"))
	}
	if *resume && *ckptPath == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	geo := cli.Geometry("gcsim", *B, *k)
	if in.Scenario != "" {
		if *probeSpec != "" || *ckptPath != "" || *resume || *deadline != 0 {
			fatal(fmt.Errorf("-scenario streams in O(1) memory and cannot be combined with -probe/-checkpoint/-resume/-deadline"))
		}
		runScenario(in, *k, geo, *policies, *optimal, *autoMode)
		return
	}

	tr := in.Trace(true)
	if *autoMode {
		runAutotuneEval(tr, *k, *B)
		return
	}
	pols := resolvePolicies(*policies, geo, in.Seed)

	sum := trace.Summarize(tr, geo)
	fmt.Printf("trace: %d requests, %d items, %d blocks, %.2f items/block, mean run %.2f\n",
		sum.Requests, sum.DistinctItems, sum.DistinctBlocks, sum.MeanItemsPerBlock, sum.BlockRunLengthMean)

	t := &render.Table{
		Title:   fmt.Sprintf("k=%d, B=%d", *k, *B),
		Headers: []string{"policy", "misses", "miss-ratio", "temporal-hits", "spatial-hits", "items-loaded"},
	}
	// With -probe, each policy runs instrumented and its suite's view is
	// dumped after the summary table.
	type probedRun struct {
		policy string
		suite  *gccache.ProbeSuite
	}
	var dumps []probedRun

	// done maps policy name -> completed Stats, restored from -checkpoint
	// on -resume and persisted after every policy so a killed run loses at
	// most one policy's worth of work. The instance hash pins the snapshot
	// to this exact (trace, k, geometry, seed) so stale files are rejected
	// rather than silently mixed in.
	hash := opt.InstanceHash(tr, geo, *k)
	done := make(map[string]gccache.Stats)
	if *resume {
		if snap, err := checkpoint.Load(*ckptPath); err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				fatal(fmt.Errorf("loading checkpoint: %w", err))
			}
		} else {
			if snap.Kind != simSnapshotKind {
				fatal(fmt.Errorf("checkpoint %s has kind %q, not %q", *ckptPath, snap.Kind, simSnapshotKind))
			}
			if snap.MetaInt("hash", 0) != hash || snap.MetaInt("seed", 0) != in.Seed {
				fatal(fmt.Errorf("checkpoint %s is for a different trace/k/B/seed", *ckptPath))
			}
			for name, body := range snap.Sections {
				st, rest, derr := cachesim.DecodeStats(body)
				if derr != nil || len(rest) != 0 {
					fatal(fmt.Errorf("checkpoint %s: corrupt stats for %q: %v", *ckptPath, name, derr))
				}
				done[name] = st
			}
			fmt.Fprintf(os.Stderr, "gcsim: resumed %d completed policies from %s\n", len(done), *ckptPath)
		}
	}
	saveCkpt := func() {
		if *ckptPath == "" {
			return
		}
		sections := make(map[string][]byte, len(done))
		for name, st := range done {
			sections[name] = cachesim.AppendStats(nil, st)
		}
		snap := &checkpoint.Snapshot{
			Kind:     simSnapshotKind,
			Meta:     map[string]int64{"hash": hash, "seed": in.Seed},
			Sections: sections,
		}
		if err := checkpoint.Save(*ckptPath, snap); err != nil {
			fatal(fmt.Errorf("saving checkpoint: %w", err))
		}
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	for _, p := range pols {
		name, mk := p.name, p.mk
		var st gccache.Stats
		switch {
		case *probeSpec != "":
			suite, serr := gccache.NewProbeSuite(*probeSpec)
			if serr != nil {
				fatal(serr)
			}
			var rerr error
			st, rerr = cachesim.Replay(ctx, mk(*k), trace.NewSliceSource(tr), cachesim.ReplayOptions{Probe: suite})
			if rerr != nil {
				fatal(rerr)
			}
			dumps = append(dumps, probedRun{policy: st.Policy, suite: suite})
		default:
			if prev, ok := done[name]; ok {
				st = prev
				break
			}
			var rerr error
			st, rerr = cachesim.Replay(ctx, mk(*k), trace.NewSliceSource(tr), cachesim.ReplayOptions{})
			if rerr != nil && ctx.Err() == nil {
				fatal(rerr) // an item outside the universe, not the deadline
			}
			if rerr != nil {
				saveCkpt()
				hint := ""
				if *ckptPath != "" {
					hint = fmt.Sprintf("; rerun with -resume -checkpoint %s to continue", *ckptPath)
				}
				fatal(fmt.Errorf("deadline exceeded after %d/%d policies (%v)%s",
					len(done), len(pols), rerr, hint))
			}
			done[name] = st
			saveCkpt()
		}
		t.AddRow(st.Policy, st.Misses, st.MissRatio(), st.TemporalHits, st.SpatialHits, st.ItemsLoaded)
	}
	if *optimal {
		est := opt.EstimateOPT(tr, geo, *k)
		t.AddRow("OPT lower (certified)", est.Lower, float64(est.Lower)/float64(len(tr)), "-", "-", "-")
		t.AddRow("OPT upper ("+est.UpperMethod+")", est.Upper, float64(est.Upper)/float64(len(tr)), "-", "-", "-")
	}
	if err := t.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	for _, d := range dumps {
		fmt.Printf("\n==== probes: %s ====\n", d.policy)
		if _, err := d.suite.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// namedPolicy is one -policy entry and its constructor.
type namedPolicy struct {
	name string
	mk   func(k int) cachesim.Cache
}

// resolvePolicies expands the -policy argument ("all" or a comma list)
// and resolves every name through core.ByName, so an unknown name exits
// before anything replays or is checkpointed.
func resolvePolicies(arg string, geo model.Geometry, seed int64) []namedPolicy {
	names := core.PolicyNames()
	if arg != "all" {
		names = strings.Split(arg, ",")
	}
	pols := make([]namedPolicy, len(names))
	for i, name := range names {
		name = strings.TrimSpace(name)
		mk, err := core.ByName(name, geo, seed)
		if err != nil {
			fatal(err)
		}
		pols[i] = namedPolicy{name: name, mk: mk}
	}
	return pols
}

// runScenario is the -scenario path: compile once, stream every policy
// from the same compiled program via Reset — O(1) memory however long
// the scenario, and byte-identical output across runs at a fixed seed.
func runScenario(in *cli.Input, k int, geo *model.Fixed, policies string, optWanted, autoMode bool) {
	// The closed-loop evaluation feeds its live cache directly, so the
	// loader holds its one seed to the universe first.
	seeds := 0
	if autoMode {
		seeds = 1
	}
	prog, info, seed := in.Program(seeds)
	fmt.Printf("scenario: %s: %s; effective seed %d\n", in.Scenario, scenario.Describe(prog, info), seed)
	if autoMode {
		// The closed-loop evaluation needs the materialized trace for
		// the offline sweep, so it gives up the O(1)-memory streaming
		// path.
		tr, terr := scenario.Trace(prog, seed)
		if terr != nil {
			fatal(terr)
		}
		runAutotuneEval(tr, k, geo.BlockSize())
		return
	}
	pols := resolvePolicies(policies, geo, seed)
	s, err := scenario.Compile(prog, seed)
	if err != nil {
		fatal(err)
	}
	if optWanted {
		fmt.Fprintln(os.Stderr, "gcsim: note: -opt needs a materialized trace and is skipped for scenarios")
	}

	t := &render.Table{
		Title:   fmt.Sprintf("k=%d, B=%d", k, geo.BlockSize()),
		Headers: []string{"policy", "misses", "miss-ratio", "temporal-hits", "spatial-hits", "items-loaded"},
	}
	for _, p := range pols {
		st, rerr := cachesim.Replay(context.Background(), p.mk(k), s, cachesim.ReplayOptions{})
		if rerr != nil {
			fatal(rerr)
		}
		s.Reset()
		t.AddRow(st.Policy, st.Misses, st.MissRatio(), st.TemporalHits, st.SpatialHits, st.ItemsLoaded)
	}
	if err := t.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) { cli.Fatal("gcsim", err) }
