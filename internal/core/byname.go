package core

import (
	"fmt"
	"strings"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/policy"
)

// policies is the one policy table every command's -policy flag reads:
// each name with its constructor, in the order gcsim's -policy all runs
// them. ByName also takes iblp-even, the name of the even split, for
// iblp.
var policies = []struct {
	name  string
	build func(k int, g model.Geometry, seed int64) cachesim.Cache
}{
	{"item-lru", func(k int, _ model.Geometry, _ int64) cachesim.Cache { return policy.NewItemLRU(k) }},
	{"clock", func(k int, _ model.Geometry, _ int64) cachesim.Cache { return policy.NewClock(k) }},
	{"block-lru", func(k int, g model.Geometry, _ int64) cachesim.Cache { return policy.NewBlockLRU(k, g) }},
	{"blie", func(k int, g model.Geometry, _ int64) cachesim.Cache { return policy.NewBlockLoadItemEvict(k, g) }},
	{"footprint", func(k int, g model.Geometry, _ int64) cachesim.Cache { return policy.NewFootprint(k, g) }},
	{"athreshold2", func(k int, g model.Geometry, _ int64) cachesim.Cache { return policy.NewAThreshold(k, 2, g) }},
	{"fifo", func(k int, _ model.Geometry, _ int64) cachesim.Cache { return policy.NewFIFO(k) }},
	{"marking", func(k int, _ model.Geometry, seed int64) cachesim.Cache { return policy.NewMarking(k, seed) }},
	{"gcm", func(k int, g model.Geometry, seed int64) cachesim.Cache { return NewGCM(k, g, seed) }},
	{"iblp", func(k int, g model.Geometry, _ int64) cachesim.Cache { return NewIBLPEvenSplit(k, g) }},
	{"adaptive", func(k int, g model.Geometry, _ int64) cachesim.Cache { return NewAdaptiveIBLP(k, g) }},
}

// PolicyNames lists every policy ByName builds, in the order gcsim's
// -policy all runs them. It leaves out the iblp-even alias.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// ByName returns a constructor for the named policy, parameterized on
// capacity so a sharded cache can build each shard at its share. The
// geometry and seed (used by gcm and marking) are fixed here.
func ByName(name string, g model.Geometry, seed int64) (func(k int) cachesim.Cache, error) {
	if name == "iblp-even" {
		name = "iblp"
	}
	for _, p := range policies {
		if p.name == name {
			build := p.build
			return func(k int) cachesim.Cache { return build(k, g, seed) }, nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q (want one of %s)", name, strings.Join(PolicyNames(), ", "))
}
