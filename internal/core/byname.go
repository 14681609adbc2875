package core

import (
	"fmt"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/policy"
)

// ByName returns a constructor for the serving policies gcserve and
// gcload accept, parameterized on capacity so a sharded cache can build
// each shard at its share: item-lru, block-lru, iblp (alias iblp-even,
// the even split), gcm (seeded with seed) and adaptive.
func ByName(name string, g model.Geometry, seed int64) (func(k int) cachesim.Cache, error) {
	switch name {
	case "item-lru":
		return func(k int) cachesim.Cache { return policy.NewItemLRU(k) }, nil
	case "block-lru":
		return func(k int) cachesim.Cache { return policy.NewBlockLRU(k, g) }, nil
	case "iblp", "iblp-even":
		return func(k int) cachesim.Cache { return NewIBLPEvenSplit(k, g) }, nil
	case "gcm":
		return func(k int) cachesim.Cache { return NewGCM(k, g, seed) }, nil
	case "adaptive":
		return func(k int) cachesim.Cache { return NewAdaptiveIBLP(k, g) }, nil
	}
	return nil, fmt.Errorf("unknown policy %q (want item-lru, block-lru, iblp, gcm, or adaptive)", name)
}
