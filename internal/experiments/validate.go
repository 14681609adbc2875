package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gccache/internal/adversary"
	"gccache/internal/bounds"
	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/opt"
	"gccache/internal/policy"
	"gccache/internal/render"
	"gccache/internal/stats"
	"gccache/internal/vsc"
)

// ReductionCheck runs experiment E1: for `rounds` random small
// variable-size caching instances, the exact VSC optimum must equal the
// exact GC optimum of the Theorem 1 reduction (Figure 2).
func ReductionCheck(rounds int, seed int64) *Report {
	r := &Report{Name: "reduction-check"}
	t := &render.Table{
		Title:   "Theorem 1 reduction: VSC OPT vs GC OPT on the reduced instance",
		Headers: []string{"instance", "items", "cache", "trace-len", "gc-trace-len", "vsc-opt", "gc-opt", "equal"},
	}
	rng := rand.New(rand.NewSource(seed))
	done := 0
	for done < rounds {
		n := 2 + rng.Intn(3)
		in := vsc.Instance{Sizes: make([]int, n), Trace: make([]int, 4+rng.Intn(5))}
		total, biggest := 0, 0
		for j := range in.Sizes {
			in.Sizes[j] = 1 + rng.Intn(3)
			total += in.Sizes[j]
			if in.Sizes[j] > biggest {
				biggest = in.Sizes[j]
			}
		}
		if total > 14 {
			continue
		}
		in.CacheSize = biggest + rng.Intn(total-biggest+1)
		for i := range in.Trace {
			in.Trace[i] = rng.Intn(n)
		}
		done++
		vOPT, err := vsc.Exact(context.Background(), in)
		if err != nil {
			r.Failf("vsc exact: %v", err)
			continue
		}
		red, err := vsc.Reduce(in)
		if err != nil {
			r.Failf("reduce: %v", err)
			continue
		}
		gRes, _, err := opt.Exact(context.Background(), red.Trace, red.Geometry, red.CacheSize, nil)
		if err != nil {
			r.Failf("gc exact: %v", err)
			continue
		}
		gOPT := gRes.Incumbent
		equal := "yes"
		if vOPT != gOPT {
			equal = "NO"
			r.Failf("instance %d: VSC OPT %d != GC OPT %d", done, vOPT, gOPT)
		}
		t.AddRow(done, n, in.CacheSize, len(in.Trace), len(red.Trace), vOPT, gOPT, equal)
	}
	r.Tables = append(r.Tables, t)
	r.Notef("offline GC caching inherits NP-completeness from variable-size caching via this cost-preserving reduction (Theorem 1)")
	return r
}

// LPCrossCheck runs experiment E5: the Theorem 6 and Theorem 7 closed
// forms against direct numeric maximization of the §5.2 programs.
func LPCrossCheck(B float64) *Report {
	r := &Report{Name: "lp-crosscheck"}
	t6 := &render.Table{
		Title:   "Theorem 6 closed form vs numeric LP (block layer)",
		Headers: []string{"b", "h", "B", "closed", "numeric", "rel-err"},
	}
	for _, p := range []struct{ b, h float64 }{
		{256, 16}, {1024, 64}, {4096, 64}, {65536, 256}, {16384, 512},
	} {
		closed := bounds.BlockLayerUB(p.b, p.h, B)
		lp := bounds.Theorem6LP(p.b, p.h, B, 64)
		re := stats.RelErr(lp, closed)
		t6.AddRow(p.b, p.h, B, closed, lp, re)
		if lp > closed*(1+1e-6) {
			r.Failf("Theorem 6: numeric optimum %v exceeds closed form %v at b=%v h=%v", lp, closed, p.b, p.h)
		}
		if re > 0.02 {
			r.Failf("Theorem 6: closed form and LP differ by %v at b=%v h=%v", re, p.b, p.h)
		}
	}
	t7 := &render.Table{
		Title:   "Theorem 7 closed form vs numeric LP (combined)",
		Headers: []string{"k/h", "i", "b", "h", "closed", "numeric", "rel-err"},
	}
	h := 4096.0
	for _, mult := range []float64{2, 3, 8, 32, 64} {
		k := mult * h
		i := bounds.OptimalItemLayer(k, h, B)
		b := k - i
		closed := bounds.IBLPUB(i, b, h, B)
		lp := bounds.Theorem7LP(i, b, h, B, 64)
		re := stats.RelErr(lp, closed)
		t7.AddRow(mult, i, b, h, closed, lp, re)
		if lp > closed*(1+1e-6) {
			r.Failf("Theorem 7: numeric optimum %v exceeds closed form %v at k=%vh", lp, closed, mult)
		}
		if re > 0.02 {
			r.Failf("Theorem 7: closed form and LP differ by %v at k=%vh", re, mult)
		}
	}
	r.Tables = append(r.Tables, t6, t7)
	r.Notef("transcribed closed forms maximize the same programs the paper solved in Mathematica (§5.2)")
	return r
}

// AdversarySweep runs experiments E2–E4: each §4 construction against the
// policy it targets across several (k, h) points, comparing the measured
// competitive-ratio lower bound to the analytic claim — plus IBLP under
// the same adversaries to show it escapes them.
func AdversarySweep(B int, phases int) *Report {
	r := &Report{Name: "adversary-sweep"}
	geo := model.NewFixed(B)
	t := &render.Table{
		Title: fmt.Sprintf("§4 constructions, measured vs claimed (B=%d, %d phases)", B, phases),
		Headers: []string{"construction", "policy", "k", "h", "measured", "claimed",
			"measured/claimed"},
	}
	type job struct {
		construction string
		policyName   string
		k, h         int
		run          func() (adversary.Result, error)
	}
	var jobs []job
	add := func(construction string, k, h int, mk func() cachesim.Cache,
		run func(c cachesim.Cache) (adversary.Result, error)) {
		c := mk()
		jobs = append(jobs, job{
			construction: construction,
			policyName:   c.Name(),
			k:            k, h: h,
			run: func() (adversary.Result, error) { return run(c) },
		})
	}
	cfg := func(h int) adversary.Config { return adversary.Config{OptSize: h, Phases: phases} }

	for _, p := range []struct{ k, h int }{{256, 64 + 1}, {512, 65}, {1024, 129}} {
		k, h := p.k, p.h
		add("thm2-item", k, h,
			func() cachesim.Cache { return policy.NewItemLRU(k) },
			func(c cachesim.Cache) (adversary.Result, error) { return adversary.ItemCache(c, geo, cfg(h)) })
		add("thm2-item", k, h,
			func() cachesim.Cache { return core.NewIBLPEvenSplit(k, geo) },
			func(c cachesim.Cache) (adversary.Result, error) { return adversary.ItemCache(c, geo, cfg(h)) })
		add("thm4-general", k, h,
			func() cachesim.Cache { return policy.NewAThreshold(k, 2, geo) },
			func(c cachesim.Cache) (adversary.Result, error) { return adversary.General(c, geo, cfg(h)) })
		add("thm4-general", k, h,
			func() cachesim.Cache { return policy.NewBlockLoadItemEvict(k, geo) },
			func(c cachesim.Cache) (adversary.Result, error) { return adversary.General(c, geo, cfg(h)) })
	}
	for _, p := range []struct{ k, h int }{{512, 8}, {1024, 16}} {
		k, h := p.k, p.h
		add("thm3-block", k, h,
			func() cachesim.Cache { return policy.NewBlockLRU(k, geo) },
			func(c cachesim.Cache) (adversary.Result, error) { return adversary.BlockCache(c, geo, cfg(h)) })
	}

	results := make([]adversary.Result, len(jobs))
	errs := make([]error, len(jobs))
	var mu sync.Mutex
	cachesim.Sweep(context.Background(), len(jobs), cachesim.SweepOptions{}, noWorker, func(i int, _ struct{}) {
		res, err := jobs[i].run()
		mu.Lock()
		results[i], errs[i] = res, err
		mu.Unlock()
	})
	for i, jb := range jobs {
		if errs[i] != nil {
			r.Failf("%s vs %s: %v", jb.construction, jb.policyName, errs[i])
			continue
		}
		res := results[i]
		rel := res.Ratio() / res.BoundClaim
		t.AddRow(jb.construction, jb.policyName, jb.k, jb.h, res.Ratio(), res.BoundClaim, rel)
		targeted := (jb.construction == "thm2-item" && jb.policyName == "item-lru") ||
			jb.construction == "thm3-block" ||
			(jb.construction == "thm4-general" && jb.policyName != "iblp")
		if targeted && rel < 0.85 {
			r.Failf("%s vs %s at k=%d h=%d: measured %.3f well below claim %.3f",
				jb.construction, jb.policyName, jb.k, jb.h, res.Ratio(), res.BoundClaim)
		}
		if jb.construction == "thm2-item" && jb.policyName[:4] == "iblp" && rel > 0.6 {
			r.Failf("IBLP did not escape the item-cache adversary (rel %.3f)", rel)
		}
	}
	r.Tables = append(r.Tables, t)
	r.Notef("targeted policies realize their §4 lower bounds; IBLP's block layer absorbs the Theorem 2 trace")
	return r
}

// FaultRateCheck runs experiment E6: the Theorem 8 family against several
// policies, comparing measured fault rates to the measured-f/g bound, and
// the Theorem 9–11 upper bounds for IBLP on the same traces.
func FaultRateCheck(k, B int, p float64, phases int) *Report {
	r := &Report{Name: "fault-rate"}
	geo := model.NewFixed(B)
	t := &render.Table{
		Title:   fmt.Sprintf("Theorem 8 family (k=%d, B=%d, f=n^(1/%g))", k, B, p),
		Headers: []string{"policy", "fault-rate", "thm8-bound", "rate/bound"},
	}
	mk := []func() cachesim.Cache{
		func() cachesim.Cache { return policy.NewItemLRU(k) },
		func() cachesim.Cache { return policy.NewFIFO(k) },
		func() cachesim.Cache { return policy.NewBlockLRU(k, geo) },
		func() cachesim.Cache { return policy.NewBlockLoadItemEvict(k, geo) },
		func() cachesim.Cache { return core.NewIBLPEvenSplit(k, geo) },
	}
	for _, build := range mk {
		c := build()
		res, err := adversary.Locality(c, geo, adversary.LocalityConfig{P: p, Phases: phases})
		if err != nil {
			r.Failf("%s: %v", c.Name(), err)
			continue
		}
		t.AddRow(c.Name(), res.FaultRate, res.Bound, res.FaultRate/res.Bound)
		if res.FaultRate < res.Bound*(1-1e-9) {
			r.Failf("%s beats the Theorem 8 bound: %.5f < %.5f", c.Name(), res.FaultRate, res.Bound)
		}
	}
	r.Tables = append(r.Tables, t)
	if math.IsNaN(p) {
		r.Failf("bad exponent")
	}
	r.Notef("every deterministic policy's fault rate on the family trace respects the Theorem 8 lower bound computed from the trace's measured f and g")
	return r
}
