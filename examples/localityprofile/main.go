// Locality-model analysis (§7): measure a workload's item and block
// working-set functions f(n) and g(n), evaluate the paper's fault-rate
// bounds with them, and compare against simulated fault rates — the
// "analysis without a hypothetical comparison point" the paper argues
// for in §5.3/§7.
package main

import (
	"context"
	"fmt"
	"log"

	"gccache"
	"gccache/internal/locality"
)

func main() {
	const (
		B = 16
		k = 256 // total cache; IBLP splits it i = b = 128
	)
	geo := gccache.NewFixedGeometry(B)

	for _, wl := range []struct {
		name string
		spec string
	}{
		{"high spatial locality", "blockruns:blocks=256,B=16,run=12,zipf=1.1,len=200000"},
		{"no spatial locality", "stride:n=512,s=16,len=200000"},
		{"sequential sweep", "cyclic:n=4096,len=200000"},
	} {
		tr, err := gccache.GenerateWorkload(wl.spec, 3)
		if err != nil {
			log.Fatal(err)
		}
		lengths := locality.GeometricLengths(1 << 14)
		f := gccache.MeasureItemLocality(tr, lengths)
		g := gccache.MeasureBlockLocality(tr, geo, lengths)
		ratio := locality.SpatialLocalityRatio(f, g)

		lb := gccache.FaultRateLowerBound(k, f, g)
		ub := gccache.IBLPFaultRateUpperBound(k/2, k/2, B, f, g)

		iblp := replay(gccache.NewIBLPEvenSplit(k, geo), tr)
		lru := replay(gccache.NewItemLRU(k), tr)
		blk := replay(gccache.NewBlockLRU(k, geo), tr)

		fmt.Printf("== %s ==\n", wl.name)
		fmt.Printf("  measured spatial-locality ratio f/g: %.2f (1 = none, B = %d = max)\n", ratio, B)
		fmt.Printf("  Theorem 8 fault-rate lower bound (any policy, size %d): %.5f\n", k, lb)
		fmt.Printf("  Theorem 11 IBLP fault-rate upper bound (i=b=%d):        %.5f\n", k/2, ub)
		fmt.Printf("  simulated fault rates: iblp %.5f | item-lru %.5f | block-lru %.5f\n\n",
			iblp.MissRatio(), lru.MissRatio(), blk.MissRatio())
	}
	fmt.Println("note: the Theorem 9–11 bounds are worst-case over all traces with")
	fmt.Println("the measured f/g, so simulated rates sit at or below them; the")
	fmt.Println("Theorem 8 bound is a floor for worst-case members of the family,")
	fmt.Println("not for every individual trace.")
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
