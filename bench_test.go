package gccache_test

import (
	"testing"

	"gccache"
	"gccache/internal/experiments"
	"gccache/internal/model"
	"gccache/internal/opt"
	"gccache/internal/workload"
)

// One benchmark per paper artifact (see DESIGN.md's per-experiment
// index). Each regenerates the table/figure and fails the bench if any
// of the paper's claims is violated, so `go test -bench=.` doubles as the
// reproduction driver.

// BenchmarkFigure1And4 regenerates the executable versions of the
// paper's two illustration figures (subset load; IBLP structure).
func BenchmarkFigure1And4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure1Demo().Err(); err != nil {
			b.Fatal(err)
		}
		if err := experiments.Figure4Demo().Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (salient competitive-ratio bounds)
// at the paper's B = 64.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(16384, 64).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (fault-rate bounds under
// polynomial locality, i = b split).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(64, []float64{2, 3, 4}, 65536).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3 (bounds vs optimal cache size)
// at the paper's k = 1.28M, B = 64.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure3(1.28e6, 64, 60).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (fixed vs optimal IBLP layer
// sizes) at k = 1.28M, B = 64.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure6(1.28e6, 64, []float64{512, 8192, 131072}, 60).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 runs the Figure 5 worst-case-pattern stress: IBLP on
// the §5.2 adversarial trace family against the offline bracket.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure5Stress(96, 96, 8, 48, 60000).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 reproduces Figure 2: the Theorem 1 reduction on the
// paper's own instance, with the optimal schedule reconstructed and
// verified.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure2Demo().Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduction runs experiment E1: Theorem 1's VSC→GC reduction
// preserves the exact optimum on random instances.
func BenchmarkReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.ReductionCheck(6, int64(i)+1).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdversaries runs experiments E2–E4: the §4 constructions
// against the policies they target.
func BenchmarkAdversaries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.AdversarySweep(64, 12).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPCrossCheck runs experiment E5: Theorem 6/7 closed forms vs
// numeric optimization of the §5.2 programs.
func BenchmarkLPCrossCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.LPCrossCheck(64).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultRate runs experiment E6: the Theorem 8 locality family
// against live policies.
func BenchmarkFaultRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.FaultRateCheck(24, 4, 2, 3).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Empirical runs experiment E7: the laptop-scale
// empirical overlay of Figure 3.
func BenchmarkFigure3Empirical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure3Empirical(256, 16, 10).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs experiment E8: the §5.1/§6.1 design-choice
// ablations.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Ablations(512, 16, int64(i)+1).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Empirical runs the measured split-sensitivity sweep.
func BenchmarkFigure6Empirical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure6Empirical(128, 8, 64, 40000).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomized runs the §6 randomized-policy study (E9).
func BenchmarkRandomized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RandomizedComparison(512, 16, 10, 3).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveStudy runs E10: adaptive vs fixed IBLP splits.
func BenchmarkAdaptiveStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.AdaptiveStudy(512, 16, 3).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMRCStudy runs the Mattson miss-ratio-curve study.
func BenchmarkMRCStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.MRCStudy(16, 4).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyShootout runs the full workload × policy matrix.
func BenchmarkPolicyShootout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.PolicyShootout(512, 16, int64(i)+1).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Microbenchmarks: per-access policy costs on a shared workload ----
//
// One untimed pass over the trace first grows each cache's arrays, so
// the LRU-family and GCM benchmarks measure the steady state the
// zero-allocation regression tests hold to 0 allocs/op. AThreshold keeps
// per-block maps and allocates as blocks come and go.

func benchPolicy(b *testing.B, mk func(g *model.Fixed) gccache.Cache) {
	g := model.NewFixed(64)
	tr, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 4096, BlockSize: 64, MeanRunLength: 8,
		ZipfS: 1.2, Length: 1 << 16, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	c := mk(g)
	for _, it := range tr {
		c.Access(it)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(tr[i&(1<<16-1)])
	}
}

func BenchmarkAccessItemLRU(b *testing.B) {
	benchPolicy(b, func(g *model.Fixed) gccache.Cache { return gccache.NewItemLRU(4096) })
}

func BenchmarkAccessBlockLRU(b *testing.B) {
	benchPolicy(b, func(g *model.Fixed) gccache.Cache { return gccache.NewBlockLRU(4096, g) })
}

func BenchmarkAccessIBLP(b *testing.B) {
	benchPolicy(b, func(g *model.Fixed) gccache.Cache { return gccache.NewIBLPEvenSplit(4096, g) })
}

func BenchmarkAccessGCM(b *testing.B) {
	benchPolicy(b, func(g *model.Fixed) gccache.Cache { return gccache.NewGCM(4096, g, 7) })
}

func BenchmarkAccessAThreshold(b *testing.B) {
	benchPolicy(b, func(g *model.Fixed) gccache.Cache { return gccache.NewAThreshold(4096, 2, g) })
}

// BenchmarkBelady measures the offline optimum solver on a large trace.
func BenchmarkBelady(b *testing.B) {
	tr, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 4096, BlockSize: 64, MeanRunLength: 8,
		ZipfS: 1.2, Length: 1 << 17, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := opt.Belady(tr, 4096); got <= 0 {
			b.Fatal("implausible Belady cost")
		}
	}
}

// BenchmarkLocalityProfile measures the exact f/g working-set profiler.
func BenchmarkLocalityProfile(b *testing.B) {
	tr, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 1024, BlockSize: 64, MeanRunLength: 16,
		Length: 1 << 16, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := model.NewFixed(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := gccache.MeasureItemLocality(tr, []int{64, 1024, 16384})
		gp := gccache.MeasureBlockLocality(tr, g, []int{64, 1024, 16384})
		if f.Eval(1024) < gp.Eval(1024) {
			b.Fatal("f below g")
		}
	}
}
