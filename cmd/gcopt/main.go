// Command gcopt computes offline-optimal costs for a trace: the exact GC
// optimum on small instances, and certified lower/upper brackets on
// large ones, alongside the traditional Belady optimum.
//
// Usage:
//
//	gcopt -workload 'blockruns:blocks=64,B=8,run=4,len=2000' -k 32 -B 8
//	gcopt -trace reqs.gct -k 1024 -B 64
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"time"

	"gccache/internal/checkpoint"
	"gccache/internal/cli"
	"gccache/internal/model"
	"gccache/internal/opt"
	"gccache/internal/trace"
)

// ckptEvery bounds how much solver progress a crash can lose when
// -checkpoint is set: the solve is chopped into chunks of this length
// and the DP frontier is persisted after each one.
const ckptEvery = 500 * time.Millisecond

func main() {
	var (
		in    = cli.NewInput("gcopt", "", "trace", false)
		k     = flag.Int("k", 64, "cache size in items")
		B     = flag.Int("B", 8, "block size")
		exact = flag.Bool("exact", false,
			"force the exact exponential solver (requires a small distinct-item universe)")
		deadline = flag.Duration("deadline", 0,
			"time budget for the exact solver; on expiry print the best incumbent and lower bound (0 = none)")
		ckptPath = flag.String("checkpoint", "",
			"persist solver progress to this file so an interrupted solve can continue")
		resume = flag.Bool("resume", false, "resume the exact solve from -checkpoint")
	)
	cli.SetUsage("gcopt", "bracket the offline-optimal miss count for a trace")
	flag.Parse()

	geo := cli.Geometry("gcopt", *B, *k)
	tr := in.Trace(false)

	fmt.Printf("trace: %d requests, %d distinct items, %d distinct blocks\n",
		len(tr), tr.Distinct(), tr.DistinctBlocks(geo))
	fmt.Printf("traditional Belady optimum (item granularity): %d\n", opt.Belady(tr, *k))
	est := opt.EstimateOPT(tr, geo, *k)
	fmt.Printf("GC optimum bracket: %d ≤ OPT ≤ %d (upper via %s)\n",
		est.Lower, est.Upper, est.UpperMethod)

	if *exact || tr.Distinct() <= opt.MaxExactUniverse {
		res, err := solveExact(tr, geo, *k, *deadline, *ckptPath, *resume)
		switch {
		case err == nil:
			fmt.Printf("exact GC optimum: %d\n", res.Incumbent)
			if res.Incumbent < est.Lower || res.Incumbent > est.Upper {
				fatal(fmt.Errorf("bracket violated: exact %d outside [%d, %d]",
					res.Incumbent, est.Lower, est.Upper))
			}
		case errors.Is(err, opt.ErrDeadline):
			fmt.Printf("exact solver stopped early: %v\n", err)
			fmt.Printf("  incumbent (feasible upper bound): %d\n", res.Incumbent)
			fmt.Printf("  proven lower bound:               %d\n", res.Lower)
			if *ckptPath != "" {
				fmt.Printf("  rerun with -resume -checkpoint %s to continue the proof\n", *ckptPath)
			}
		default:
			fmt.Printf("exact solver: %v\n", err)
			if *exact {
				os.Exit(1)
			}
		}
	} else {
		fmt.Printf("(exact solver skipped: %d distinct items > limit %d; pass -exact to force)\n",
			tr.Distinct(), opt.MaxExactUniverse)
	}
}

// solveExact runs the anytime exact solver under the -deadline budget,
// persisting the DP frontier to ckptPath every ckptEvery (and at the
// end, so a deadline stop leaves a resumable file behind).
func solveExact(tr trace.Trace, geo model.Geometry, k int, deadline time.Duration, ckptPath string, resume bool) (opt.Anytime, error) {
	hash := opt.InstanceHash(tr, geo, k)
	var ck *opt.Checkpoint
	if resume {
		if ckptPath == "" {
			fatal(fmt.Errorf("-resume requires -checkpoint"))
		}
		// A first run of a resumable job finds no checkpoint yet and
		// starts fresh; any other load error is fatal.
		if snap, err := checkpoint.Load(ckptPath); err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				fatal(fmt.Errorf("loading checkpoint: %w", err))
			}
		} else {
			if ck, err = opt.CheckpointFromSnapshot(snap, hash); err != nil {
				fatal(err)
			}
			fmt.Printf("resuming exact solve from %s at access %d/%d\n", ckptPath, ck.Step, len(tr))
		}
	}
	overall := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		overall, cancel = context.WithTimeout(overall, deadline)
		defer cancel()
	}
	for {
		chunk := overall
		cancel := context.CancelFunc(func() {})
		if ckptPath != "" {
			chunk, cancel = context.WithTimeout(overall, ckptEvery)
		}
		res, next, err := opt.Exact(chunk, tr, geo, k, ck)
		cancel()
		ck = next
		if ckptPath != "" && ck != nil {
			if serr := checkpoint.Save(ckptPath, ck.Snapshot(hash)); serr != nil {
				fatal(fmt.Errorf("saving checkpoint: %w", serr))
			}
		}
		if err == nil || !errors.Is(err, opt.ErrDeadline) || overall.Err() != nil {
			return res, err
		}
		// Only the chunk timer fired: checkpoint written, budget remains.
	}
}

func fatal(err error) { cli.Fatal("gcopt", err) }
