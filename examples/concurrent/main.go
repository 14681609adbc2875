// Concurrent serving: a sharded, thread-safe GC cache fed by many client
// streams at once — the deployment shape of the paper's motivating
// systems (shared DRAM caches, storage-server buffer pools). Sharding is
// by block, so the unit-cost block load of the GC model never crosses a
// shard boundary.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"gccache"
)

func main() {
	const (
		blockSize = 64
		cacheSize = 1 << 15
		shards    = 16
		clients   = 8
	)
	geo := gccache.NewFixedGeometry(blockSize)

	s, err := gccache.NewShardedCache(shards, cacheSize, geo,
		func(per int) gccache.Cache { return gccache.NewIBLPEvenSplit(per, geo) })
	if err != nil {
		log.Fatal(err)
	}

	tr, err := gccache.GenerateWorkload(
		"blockruns:blocks=4096,B=64,run=16,zipf=1.2,len=1000000", 11)
	if err != nil {
		log.Fatal(err)
	}
	streams := gccache.SplitStreams(tr, clients)

	// The engine runs one producer goroutine per client stream and one
	// worker per shard; each worker serves a whole batch under one lock.
	e, err := gccache.NewReplayEngine(s, len(streams), gccache.BatchReplayConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	start := time.Now()
	st, err := e.Replay(context.Background(), streams)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("served %d requests from %d client streams on %d CPUs in %v\n",
		st.Accesses, clients, runtime.GOMAXPROCS(0), elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.1f M requests/s\n",
		float64(st.Accesses)/elapsed.Seconds()/1e6)
	fmt.Printf("miss ratio %.4f — %d temporal hits, %d spatial hits\n",
		st.MissRatio(), st.TemporalHits, st.SpatialHits)

	// The composite is still a legal GC cache: same API, same analysis.
	fmt.Printf("\ncomposite cache: %s, capacity %d across %d shards\n",
		s.Name(), s.Capacity(), s.NumShards())
	fmt.Println("each shard runs its own IBLP; blocks never straddle shards, so")
	fmt.Println("the paper's single-cache bounds apply shard-by-shard.")
}
