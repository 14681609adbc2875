// Quickstart: build an IBLP cache, run a mixed-locality workload through
// it and through the two single-granularity baselines, and print the
// paper's headline effect — the layered cache is robust where each
// baseline collapses.
package main

import (
	"context"
	"fmt"
	"log"

	"gccache"
)

func main() {
	const (
		blockSize = 64   // B: items per block at the level below
		cacheSize = 4096 // k: items the cache can hold
	)
	geo := gccache.NewFixedGeometry(blockSize)

	// A workload with both kinds of locality: skewed block popularity
	// (temporal) and multi-item excursions into each block (spatial).
	tr, err := gccache.GenerateWorkload(
		"blockruns:blocks=1024,B=64,run=16,zipf=1.2,len=300000", 42)
	if err != nil {
		log.Fatal(err)
	}

	caches := []gccache.Cache{
		gccache.NewItemLRU(cacheSize),            // loads only requested items
		gccache.NewBlockLRU(cacheSize, geo),      // loads & evicts whole blocks
		gccache.NewIBLPEvenSplit(cacheSize, geo), // the paper's layered policy
	}
	fmt.Printf("%-22s %10s %12s %14s %13s\n",
		"policy", "misses", "miss ratio", "temporal hits", "spatial hits")
	for _, c := range caches {
		// A fresh cache starts cold; Replay accepts any TraceSource, so an
		// in-memory trace goes through NewSliceSource.
		st, err := gccache.Replay(context.Background(), c, gccache.NewSliceSource(tr), gccache.ReplayOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %10d %12.4f %14d %13d\n",
			st.Policy, st.Misses, st.MissRatio(), st.TemporalHits, st.SpatialHits)
	}

	// How close is IBLP to offline optimal? Bracket OPT from both sides.
	est := gccache.EstimateOptimal(tr, geo, cacheSize)
	fmt.Printf("\noffline optimum bracket: %d ≤ OPT ≤ %d (%s)\n",
		est.Lower, est.Upper, est.UpperMethod)

	// And what does the theory promise? The §5.3 bound for IBLP sized
	// against an optimal cache of half our size.
	h := float64(cacheSize) / 2
	fmt.Printf("IBLP competitive-ratio upper bound vs OPT(h=%.0f): %.2f (Theorem 7 + §5.3)\n",
		h, gccache.IBLPKnownSizeRatio(float64(cacheSize), h, blockSize))
}
