package main

import (
	"fmt"
	"os"

	"gccache/internal/autotune"
	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/opt"
	"gccache/internal/render"
	"gccache/internal/trace"
)

// runAutotuneEval is the -autotune path: the §5.3 closed-loop regret
// evaluation the EXPERIMENTS.md table is built from. It replays the
// trace three ways — through the live autotuner starting from the even
// split, through the fixed even split, and through every fixed
// candidate split (the offline sweep) — and reports each run's regret
// against the offline-optimal fixed split.
//
// Unlike the plain -scenario path this materializes the trace: the
// offline baseline needs the whole request sequence. The loader has
// held the trace to cachesim.MaxUniverse, the bound Replay applies:
// Drive feeds the live cache directly, and the tuner skips items past
// it.
func runAutotuneEval(tr trace.Trace, k, B int) {
	geo := model.NewFixed(B)

	tn, err := autotune.New(autotune.Config{K: k, B: B})
	if err != nil {
		fatal(err)
	}
	cands := tn.Candidates()
	offBest, offAll := opt.BestIBLPSplit(tr, geo, k, cands)
	worst := offAll[0]
	var even cachesim.Stats
	evenSplit := k / 2
	for _, ev := range offAll {
		if ev.Misses > worst.Misses {
			worst = ev
		}
	}

	// The live cache starts at the even split with ⌊k/2⌋ items, the
	// candidate the sweep recovers below; the table's iblp gives the item
	// layer ⌈k/2⌉, so an odd k is moved there before the replay.
	build, err := core.ByName("iblp", geo, 0)
	if err != nil {
		fatal(err)
	}
	live := build(k).(*core.IBLP)
	live.SetItemLayerTarget(evenSplit)
	st := autotune.Drive(live, tn, tr, 0)
	s := tn.State()

	// The even split is on the default candidate grid, so its fixed run
	// is already in the sweep; recover it rather than replaying again.
	for _, ev := range offAll {
		if ev.ItemLayer == evenSplit {
			even = cachesim.Stats{Accesses: int64(len(tr)), Misses: ev.Misses}
		}
	}

	regret := func(misses int64) string {
		if offBest.Misses == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", 100*(float64(misses)/float64(offBest.Misses)-1))
	}
	t := &render.Table{
		Title:   fmt.Sprintf("§5.3 closed loop: k=%d, B=%d, %d requests, candidate grid %v", k, B, len(tr), cands),
		Headers: []string{"config", "misses", "miss-ratio", "regret vs OPT-split", "resizes", "final split"},
	}
	t.AddRow("autotuned (from even split)", st.Misses, st.MissRatio(), regret(st.Misses),
		s.Resizes, live.ItemLayerTarget())
	t.AddRow(fmt.Sprintf("fixed even split i=%d", evenSplit), even.Misses, even.MissRatio(),
		regret(even.Misses), "-", evenSplit)
	t.AddRow(fmt.Sprintf("offline best split i=%d", offBest.ItemLayer), offBest.Misses,
		offBest.MissRatio, "+0.0%", "-", offBest.ItemLayer)
	t.AddRow(fmt.Sprintf("offline worst split i=%d", worst.ItemLayer), worst.Misses,
		worst.MissRatio, regret(worst.Misses), "-", worst.ItemLayer)
	if err := t.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("controller: %d windows (W=%d), working set %d, formula target %d, winner %d\n",
		s.Windows, s.Window, s.WorkingSet, s.Formula, s.Winner)
}
