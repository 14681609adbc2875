// A guided tour of the paper, section by section, with every claim
// evaluated live: the model (§2), NP-completeness via the reduction
// (§3), the lower bounds realized by adaptive adversaries (§4), IBLP and
// its upper bound (§5), GCM (§6), and the locality model (§7).
package main

import (
	"context"
	"fmt"
	"log"

	"gccache"
	"gccache/internal/locality"
)

func section(title string) { fmt.Printf("\n━━ %s ━━\n", title) }

func main() {
	const (
		B = 16
		k = 512
		h = 241 // B | (k−h+1) so the §4 bounds are exact
	)
	geo := gccache.NewFixedGeometry(B)

	section("§2 The model: subset loads at unit cost")
	c := gccache.NewBlockLoadItemEvict(k, geo)
	st := replay(c, gccache.Trace{0, 1, 2, 3})
	fmt.Printf("accessing 4 siblings of one block: %d miss, %d spatial hits — items after the first are free\n",
		st.Misses, st.SpatialHits)

	section("§3 Offline GC caching is NP-complete (Theorem 1)")
	tr := gccache.Trace{0, 1, 0, 1, 16, 32, 33, 34, 0, 1}
	exact, err := gccache.ExactOptimal(tr, geo, 4)
	if err != nil {
		log.Fatal(err)
	}
	est := gccache.EstimateOptimal(tr, geo, 4)
	fmt.Printf("exact solver (exponential, as NP-completeness demands): OPT = %d;\n", exact)
	fmt.Printf("polynomial bracket for large instances: %d ≤ OPT ≤ %d (%s)\n",
		est.Lower, est.Upper, est.UpperMethod)

	section("§4 Lower bounds, realized against live policies")
	res, err := gccache.RunItemCacheAdversary(gccache.NewItemLRU(k), geo, h, 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 2 vs item-lru:  measured %.2f, bound %.2f\n", res.Ratio(), res.BoundClaim)
	res, err = gccache.RunBlockCacheAdversary(gccache.NewBlockLRU(k, geo), geo, 8, 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 3 vs block-lru: measured %.2f, bound %.2f\n", res.Ratio(), res.BoundClaim)
	res, err = gccache.RunGeneralAdversary(gccache.NewAThreshold(k, 4, geo), geo, h, 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 4 vs a=4:       measured %.2f, bound %.2f\n", res.Ratio(), res.BoundClaim)

	section("§5 IBLP and its upper bound")
	iblp := gccache.NewIBLPEvenSplit(k, geo)
	res, err = gccache.RunItemCacheAdversary(iblp, geo, h, 30)
	if err != nil {
		log.Fatal(err)
	}
	ub := gccache.IBLPUpperBound(float64(k/2), float64(k-k/2), float64(h), B)
	fmt.Printf("same Theorem 2 trace vs IBLP: measured %.2f ≤ Theorem 7 bound %.2f\n",
		res.Ratio(), ub)
	fmt.Printf("§5.3 sizing against h=%d: optimal item layer %.0f of %d\n",
		h, gccache.OptimalItemLayer(k, h, B), k)

	section("§6 Randomized: GCM vs granularity-oblivious marking")
	gcmRes, err := gccache.RunItemCacheAdversary(gccache.NewGCM(k, geo, 1), geo, h, 30)
	if err != nil {
		log.Fatal(err)
	}
	markRes, err := gccache.RunItemCacheAdversary(gccache.NewMarking(k, 1), geo, h, 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("on spatial traces: marking %.2f vs GCM %.2f (the ≈B× gap of §6.1)\n",
		markRes.Ratio(), gcmRes.Ratio())

	section("§7 The locality model: analysis without a comparison point")
	wl, err := gccache.GenerateWorkload("blockruns:blocks=256,B=16,run=8,len=100000", 2)
	if err != nil {
		log.Fatal(err)
	}
	lengths := locality.GeometricLengths(1 << 14)
	f := gccache.MeasureItemLocality(wl, lengths)
	g := gccache.MeasureBlockLocality(wl, geo, lengths)
	fmt.Printf("measured f/g spatial-locality ratio: %.2f (1 = none, B = %d = max)\n",
		locality.SpatialLocalityRatio(f, g), B)
	fmt.Printf("Theorem 8 fault-rate floor at k=%d:  %.5f\n", k, gccache.FaultRateLowerBound(k, f, g))
	fmt.Printf("Theorem 11 IBLP fault-rate ceiling:  %.5f\n",
		gccache.IBLPFaultRateUpperBound(float64(k/2), float64(k/2), B, f, g))
	sim := replay(gccache.NewIBLPEvenSplit(k, geo), wl)
	fmt.Printf("simulated IBLP fault rate:           %.5f\n", sim.MissRatio())

	fmt.Println("\n(regenerate every table and figure with: go run ./cmd/gcrepro -out results)")
}

// replay resets c and replays tr through it.
func replay(c gccache.Cache, tr gccache.Trace) gccache.Stats {
	c.Reset()
	st, err := gccache.Replay(context.Background(), c, gccache.NewSliceSource(tr), gccache.ReplayOptions{})
	if err != nil {
		log.Fatal(err)
	}
	return st
}
