// Package conformance certifies every replacement policy in the
// repository against the paper's Definition 1, by replaying diverse
// workloads through the cachesim.Validator wrapper: hits only on resident
// items, loads only on misses and only within the requested block, net
// change reporting, demand caching, capacity, and Contains/Len agreement.
package conformance

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/policy"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// builders enumerates every policy at a given capacity and geometry.
func builders(k int, geo model.Geometry, seed int64) map[string]func() cachesim.Cache {
	return map[string]func() cachesim.Cache{
		"item-lru":    func() cachesim.Cache { return policy.NewItemLRU(k) },
		"item-clock":  func() cachesim.Cache { return policy.NewClock(k) },
		"fifo":        func() cachesim.Cache { return policy.NewFIFO(k) },
		"random":      func() cachesim.Cache { return policy.NewRandomEvict(k, seed) },
		"marking":     func() cachesim.Cache { return policy.NewMarking(k, seed) },
		"block-lru":   func() cachesim.Cache { return policy.NewBlockLRU(k, geo) },
		"athresh-1":   func() cachesim.Cache { return policy.NewBlockLoadItemEvict(k, geo) },
		"athresh-2":   func() cachesim.Cache { return policy.NewAThreshold(k, 2, geo) },
		"athresh-B":   func() cachesim.Cache { return policy.NewAThreshold(k, geo.BlockSize(), geo) },
		"footprint":   func() cachesim.Cache { return policy.NewFootprint(k, geo) },
		"gcm":         func() cachesim.Cache { return core.NewGCM(k, geo, seed) },
		"gcm-markall": func() cachesim.Cache { return core.NewGCMMarkAll(k, geo, seed) },
		"iblp-even":   func() cachesim.Cache { return core.NewIBLPEvenSplit(k, geo) },
		"iblp-item-heavy": func() cachesim.Cache {
			return core.NewIBLP(k-k/4, k/4, geo)
		},
		"iblp-block-heavy": func() cachesim.Cache {
			return core.NewIBLP(k/4, k-k/4, geo)
		},
		"iblp-promote-all": func() cachesim.Cache {
			return core.NewIBLPPromoteAll(k/2, k/2, geo)
		},
		"iblp-exclusive": func() cachesim.Cache {
			return core.NewIBLPExclusive(k/2, k/2, geo)
		},
		"iblp-inclusive": func() cachesim.Cache {
			return core.NewIBLPInclusive(k/2, k/2, geo)
		},
		"adaptive-iblp": func() cachesim.Cache {
			return core.NewAdaptiveIBLP(k, geo)
		},
	}
}

// boundedBuilders enumerates the dense-path (bounded) constructors,
// which must conform exactly like their generic counterparts. universe
// must be at least the trace's item bound (constructors expand it to
// whole blocks themselves).
func boundedBuilders(k int, geo model.Geometry, seed int64, universe int) map[string]func() cachesim.Cache {
	return map[string]func() cachesim.Cache{
		"item-lru-dense":  func() cachesim.Cache { return policy.NewItemLRUBounded(k, universe) },
		"block-lru-dense": func() cachesim.Cache { return policy.NewBlockLRUBounded(k, geo, universe) },
		"gcm-dense":       func() cachesim.Cache { return core.NewGCMBounded(k, geo, seed, universe) },
		"iblp-even-dense": func() cachesim.Cache { return core.NewIBLPEvenSplitBounded(k, geo, universe) },
	}
}

// conformanceWorkloads returns stress traces spanning the locality
// spectrum plus tight-capacity randomness.
func conformanceWorkloads(t *testing.T, B int, seed int64) map[string]trace.Trace {
	t.Helper()
	runs, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 64, BlockSize: B, MeanRunLength: float64(B) / 2,
		ZipfS: 1.3, Length: 8000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	uniform := make(trace.Trace, 8000)
	for i := range uniform {
		uniform[i] = model.Item(rng.Intn(16 * B))
	}
	return map[string]trace.Trace{
		"sequential": workload.Sequential(0, 8000),
		"cyclic":     workload.CyclicScan(4*B, 8000),
		"stride":     workload.Stride(96, B, 8000),
		"blockruns":  runs,
		"uniform":    uniform,
	}
}

func TestAllPoliciesConformToModel(t *testing.T) {
	for _, cfg := range []struct{ k, B int }{
		{64, 8}, // roomy
		{16, 8}, // k = 2B: tight
		{9, 8},  // k barely above B
		{8, 8},  // k = B: extreme pressure
		{64, 1}, // degenerate blocks (traditional caching)
	} {
		geo := model.NewFixed(cfg.B)
		for wname, tr := range conformanceWorkloads(t, cfg.B, 7) {
			mks := builders(cfg.k, geo, 7)
			for n, mk := range boundedBuilders(cfg.k, geo, 7, tr.Universe()) {
				mks[n] = mk
			}
			for pname, mk := range mks {
				t.Run(fmt.Sprintf("k%d-B%d/%s/%s", cfg.k, cfg.B, wname, pname), func(t *testing.T) {
					v := cachesim.NewValidator(mk(), geo)
					replay(t, v, tr)
					if err := v.Err(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestConformanceSurvivesReset(t *testing.T) {
	geo := model.NewFixed(4)
	mks := builders(16, geo, 3)
	for n, mk := range boundedBuilders(16, geo, 3, 500) {
		mks[n] = mk
	}
	for pname, mk := range mks {
		v := cachesim.NewValidator(mk(), geo)
		replay(t, v, workload.Sequential(0, 500))
		v.Reset()
		replay(t, v, workload.CyclicScan(32, 500))
		if err := v.Err(); err != nil {
			t.Errorf("%s: %v", pname, err)
		}
	}
}

// TestConformancePooledSweep drives the chunked Sweep engine over the
// full policy × workload grid, pooling one cache per policy per worker
// and reusing it (Reset, plus Reseed for randomized policies) across the
// worker's cells — certifying that the pooled-reuse fast path the
// experiment runners rely on still conforms to Definition 1.
func TestConformancePooledSweep(t *testing.T) {
	const k, B = 32, 8
	const seed = 11
	geo := model.NewFixed(B)
	wls := conformanceWorkloads(t, B, seed)
	universe := 0
	wnames := make([]string, 0, len(wls))
	for n, tr := range wls {
		wnames = append(wnames, n)
		if u := tr.Universe(); u > universe {
			universe = u
		}
	}
	sort.Strings(wnames)
	mks := builders(k, geo, seed)
	for n, mk := range boundedBuilders(k, geo, seed, universe) {
		mks[n] = mk
	}
	pnames := make([]string, 0, len(mks))
	for n := range mks {
		pnames = append(pnames, n)
	}
	sort.Strings(pnames)

	type cell struct{ pi, wi int }
	cells := make([]cell, 0, len(pnames)*len(wnames))
	for pi := range pnames {
		for wi := range wnames {
			cells = append(cells, cell{pi, wi})
		}
	}
	errs := make([]error, len(cells))
	cachesim.Sweep(context.Background(), len(cells), cachesim.SweepOptions{}, func() []cachesim.Cache {
		return make([]cachesim.Cache, len(pnames))
	}, func(ci int, pool []cachesim.Cache) {
		c := cells[ci]
		cache := pool[c.pi]
		if cache == nil {
			cache = mks[pnames[c.pi]]()
			pool[c.pi] = cache
		} else {
			cache.Reset()
			if rs, ok := cache.(cachesim.Reseeder); ok {
				rs.Reseed(seed)
			}
		}
		v := cachesim.NewValidator(cache, geo)
		replay(t, v, wls[wnames[c.wi]])
		errs[ci] = v.Err() // distinct slot per cell: no lock needed
	})
	for ci, err := range errs {
		if err != nil {
			c := cells[ci]
			t.Errorf("%s on %s (pooled): %v", pnames[c.pi], wnames[c.wi], err)
		}
	}
}

// TestRandomConfigFuzz draws random (k, B, universe) configurations and
// random traces, pushing every policy through the validator — the
// conformance suite's coverage of configurations nobody hand-picked.
func TestRandomConfigFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for round := 0; round < 12; round++ {
		B := 1 + rng.Intn(16)
		k := B + rng.Intn(8*B)
		if k < 4 {
			k = 4 // the k/2-split variants need both layers nonzero
		}
		universe := B * (1 + rng.Intn(20))
		geo := model.NewFixed(B)
		tr := make(trace.Trace, 3000)
		for i := range tr {
			tr[i] = model.Item(rng.Intn(universe))
		}
		mks := builders(k, geo, int64(round))
		for n, mk := range boundedBuilders(k, geo, int64(round), universe) {
			mks[n] = mk
		}
		for pname, mk := range mks {
			v := cachesim.NewValidator(mk(), geo)
			replay(t, v, tr)
			if err := v.Err(); err != nil {
				t.Fatalf("round %d (k=%d B=%d U=%d) %s: %v",
					round, k, B, universe, pname, err)
			}
		}
	}
}

// replay runs tr through c from its current state.
func replay(t testing.TB, c cachesim.Cache, tr trace.Trace) cachesim.Stats {
	t.Helper()
	st, err := cachesim.Replay(context.Background(), c, trace.NewSliceSource(tr), cachesim.ReplayOptions{})
	if err != nil {
		t.Error(err)
	}
	return st
}
