package gccache_test

import (
	"context"
	"fmt"

	"gccache"
)

// ExampleReplay demonstrates the basic simulation loop: an IBLP cache
// over 4-item blocks serving a trace with perfect spatial locality.
func ExampleReplay() {
	geo := gccache.NewFixedGeometry(4)
	c := gccache.NewIBLP(8, 8, geo)
	tr := gccache.Trace{0, 1, 2, 3, 4, 5, 6, 7}
	st, err := gccache.Replay(context.Background(), c, gccache.NewSliceSource(tr), gccache.ReplayOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("misses=%d spatial-hits=%d\n", st.Misses, st.SpatialHits)
	// Output: misses=2 spatial-hits=6
}

// ExampleNewBlockLRU shows Theorem 3's pollution effect: one live item
// per block makes a Block Cache behave like a cache B× smaller.
func ExampleNewBlockLRU() {
	geo := gccache.NewFixedGeometry(4)
	blockCache := gccache.NewBlockLRU(8, geo) // 2 block frames
	itemCache := gccache.NewItemLRU(8)
	tr := gccache.Trace{0, 4, 8}               // three blocks, one item each
	tr = append(tr, gccache.Trace{0, 4, 8}...) // repeat
	for _, c := range []gccache.Cache{blockCache, itemCache} {
		st, _ := gccache.Replay(context.Background(), c, gccache.NewSliceSource(tr), gccache.ReplayOptions{})
		fmt.Printf("%s misses: %d\n", c.Name(), st.Misses)
	}
	// Output:
	// block-lru misses: 6
	// item-lru misses: 3
}

// ExampleSleatorTarjan evaluates the classic bound next to the paper's
// GC bounds at the same parameters.
func ExampleSleatorTarjan() {
	k, h, B := 1024.0, 128.0, 64.0
	fmt.Printf("traditional: %.2f\n", gccache.SleatorTarjan(k, h))
	fmt.Printf("gc item-cache bound: %.2f\n", gccache.ItemCacheLowerBound(k, h, B))
	fmt.Printf("gc iblp upper bound: %.2f\n", gccache.IBLPKnownSizeRatio(k, h, B))
	// Output:
	// traditional: 1.14
	// gc item-cache bound: 68.57
	// gc iblp upper bound: 20.31
}

// ExampleBelady brackets the offline optimum of a scan under granularity
// change: one unit-cost load per block suffices.
func ExampleBelady() {
	geo := gccache.NewFixedGeometry(4)
	tr := gccache.Trace{}
	for i := 0; i < 32; i++ {
		tr = append(tr, gccache.Item(i))
	}
	fmt.Println("item-granularity optimum:", gccache.Belady(tr, 8))
	est := gccache.EstimateOptimal(tr, geo, 8)
	fmt.Printf("gc optimum: %d ≤ OPT ≤ %d\n", est.Lower, est.Upper)
	// Output:
	// item-granularity optimum: 32
	// gc optimum: 8 ≤ OPT ≤ 8
}

// ExampleNewValidator certifies a policy against the paper's model.
func ExampleNewValidator() {
	geo := gccache.NewFixedGeometry(4)
	v := gccache.NewValidator(gccache.NewGCM(16, geo, 1), geo)
	tr, _ := gccache.GenerateWorkload("cyclic:n=32,len=5000", 1)
	gccache.Replay(context.Background(), v, gccache.NewSliceSource(tr), gccache.ReplayOptions{})
	fmt.Println("violations:", v.Err())
	// Output: violations: <nil>
}
