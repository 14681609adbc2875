package autotune

import (
	"math/rand"
	"testing"
	"time"

	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/trace"
)

// genMixedTrace builds a trace with a zipf-hot core, sequential scans,
// and uniform noise — enough variety to exercise item-layer hits,
// block-layer (spatial) hits, truncation, and full misses.
func genMixedTrace(rng *rand.Rand, universe, n, blockSize int) trace.Trace {
	z := rand.NewZipf(rng, 1.2, 1, uint64(universe/4))
	tr := make(trace.Trace, 0, n)
	for len(tr) < n {
		switch rng.Intn(10) {
		case 0: // sequential scan of a few blocks
			start := rng.Intn(universe)
			for j := 0; j < 3*blockSize && len(tr) < n; j++ {
				tr = append(tr, model.Item((start+j)%universe))
			}
		case 1: // uniform noise
			tr = append(tr, model.Item(rng.Intn(universe)))
		default: // hot set
			tr = append(tr, model.Item(z.Uint64()))
		}
	}
	return tr
}

// TestShadowMatchesIBLP pins the tentpole's correctness anchor: a
// Shadow at split (i, k−i) must agree with the real dense IBLP at the
// same split on every hit/miss decision. Any divergence would mean the
// controller picks splits using a policy that is not the one it tunes.
func TestShadowMatchesIBLP(t *testing.T) {
	const universe = 4096
	const k = 256
	for _, blockSize := range []int{1, 8, 64, 512} {
		for _, i := range []int{0, 1, k / 4, k / 2, k - 1, k} {
			g := model.NewFixed(blockSize)
			sh, err := NewShadow(i, k-i, g, universe)
			if err != nil {
				t.Fatalf("B=%d i=%d: NewShadow: %v", blockSize, i, err)
			}
			ref := core.NewIBLP(i, k-i, g)
			rng := rand.New(rand.NewSource(int64(blockSize*1000 + i)))
			tr := genMixedTrace(rng, universe, 30000, blockSize)
			for step, it := range tr {
				want := ref.Access(it).Hit
				got := sh.Access(it)
				if got != want {
					t.Fatalf("B=%d i=%d step %d (item %d): shadow hit=%v, IBLP hit=%v",
						blockSize, i, step, it, got, want)
				}
			}
			if sh.Hits()+sh.Misses() != int64(len(tr)) {
				t.Fatalf("B=%d i=%d: hits %d + misses %d != %d accesses",
					blockSize, i, sh.Hits(), sh.Misses(), len(tr))
			}
		}
	}
}

// TestShadowWindowCounters checks the per-window accounting the
// controller consumes: WindowMisses accumulates between resets and
// lifetime counters survive them.
func TestShadowWindowCounters(t *testing.T) {
	g := model.NewFixed(8)
	sh, err := NewShadow(16, 16, g, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sh.Access(model.Item(i * 8)) // one block each: all misses
	}
	if sh.WindowMisses() != 100 || sh.Misses() != 100 {
		t.Fatalf("after 100 misses: window=%d lifetime=%d", sh.WindowMisses(), sh.Misses())
	}
	sh.WindowReset()
	if sh.WindowMisses() != 0 || sh.Misses() != 100 {
		t.Fatalf("after reset: window=%d lifetime=%d", sh.WindowMisses(), sh.Misses())
	}
	sh.Access(model.Item(0)) // still resident from the block layer? miss either way counts once
	total := sh.Hits() + sh.Misses()
	if total != 101 {
		t.Fatalf("lifetime hits+misses = %d, want 101", total)
	}
	sh.Reset()
	if sh.Hits() != 0 || sh.Misses() != 0 || sh.WindowMisses() != 0 {
		t.Fatalf("Reset left counters: %d/%d/%d", sh.Hits(), sh.Misses(), sh.WindowMisses())
	}
	if sh.Access(model.Item(0)) {
		t.Fatal("hit on an item after Reset")
	}
}

// TestShadowRejectsBadConfig covers the constructor's error paths.
func TestShadowRejectsBadConfig(t *testing.T) {
	g := model.NewFixed(8)
	if _, err := NewShadow(-1, 8, g, 64); err == nil {
		t.Error("negative item layer accepted")
	}
	if _, err := NewShadow(0, 0, g, 64); err == nil {
		t.Error("zero total size accepted")
	}
	if _, err := NewShadow(4, 4, nil, 64); err == nil {
		t.Error("nil geometry accepted")
	}
	if _, err := NewShadow(4, 4, g, 0); err == nil {
		t.Error("zero universe accepted")
	}
}

// TestShadowZeroAlloc is the satellite-4 proof at the shadow level: a
// warmed shadow serves accesses at exactly 0 allocs/op.
func TestShadowZeroAlloc(t *testing.T) {
	const universe = 1 << 12
	g := model.NewFixed(16)
	sh, err := NewShadow(256, 256, g, universe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < universe*2; i++ {
		sh.Access(model.Item(i % universe))
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		sh.Access(model.Item(i % universe))
		i += 37
	}); avg != 0 {
		t.Errorf("shadow access: %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkShadowGridVsIBLP measures what the tuner saves by running
// its ghosts as Shadows: it replays one scenario trace through the
// default nine-split grid (k=4096, B=64) once as Shadows and once as
// dense core.IBLP caches at the same splits, back to back in each
// iteration, and reports ns per access of each and their ratio.
func BenchmarkShadowGridVsIBLP(b *testing.B) {
	const k, B = 4096, 64
	for _, sc := range []string{"drift", "storage-server"} {
		b.Run(sc, func(b *testing.B) {
			tr := loadScenarioTrace(b, "../../scenarios/"+sc+".gcs")
			g := model.NewFixed(B)
			tn, err := New(Config{K: k, B: B, Universe: tr.Universe()})
			if err != nil {
				b.Fatal(err)
			}
			var shadows []*Shadow
			var iblps []*core.IBLP
			for _, i := range tn.Candidates() {
				sh, err := NewShadow(i, k-i, g, tr.Universe())
				if err != nil {
					b.Fatal(err)
				}
				shadows = append(shadows, sh)
				iblps = append(iblps, core.NewIBLP(i, k-i, g))
			}
			var shadowNs, iblpNs time.Duration
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				t0 := time.Now()
				for _, sh := range shadows {
					sh.Reset()
					for _, it := range tr {
						sh.Access(it)
					}
				}
				t1 := time.Now()
				for _, c := range iblps {
					c.Reset()
					for _, it := range tr {
						c.Access(it)
					}
				}
				shadowNs += t1.Sub(t0)
				iblpNs += time.Since(t1)
			}
			accesses := float64(b.N) * float64(len(tr)) * float64(len(shadows))
			b.ReportMetric(float64(shadowNs)/accesses, "shadow-ns/access")
			b.ReportMetric(float64(iblpNs)/accesses, "iblp-ns/access")
			b.ReportMetric(float64(iblpNs)/float64(shadowNs), "iblp/shadow")
		})
	}
}
