package reseedfixture

import "math/rand"

// Reconstructs assigns a fresh generator — the canonical Reseed.
type Reconstructs struct {
	rng *rand.Rand
}

func (c *Reconstructs) Access(it uint64) bool { return c.rng.Intn(2) == 0 }

func (c *Reconstructs) Reseed(seed int64) {
	c.rng = rand.New(rand.NewSource(seed))
}

// SeedsInPlace re-seeds the existing generator via its Seed method,
// which restarts the stream just as well.
type SeedsInPlace struct {
	rng *rand.Rand
}

func (c *SeedsInPlace) Access(it uint64) bool { return c.rng.Intn(2) == 0 }

func (c *SeedsInPlace) Reseed(seed int64) {
	c.rng.Seed(seed)
}

// NotACache holds a generator but has no Access method — workload
// generators and adversaries are not pooled by sweep engines, so no
// Reseed is demanded.
type NotACache struct {
	rng *rand.Rand
}

func (g *NotACache) Next() uint64 { return uint64(g.rng.Int63()) }

// Deterministic has an Access method but no rng field: nothing to
// reseed.
type Deterministic struct {
	items []uint64
}

func (c *Deterministic) Access(it uint64) bool { return len(c.items) > 0 }

// StreamSeeded re-seeds its own generator in place, as core.GCM does.
type StreamSeeded struct {
	gen stream
}

func (c *StreamSeeded) Access(it uint64) bool { return c.gen.Int63()&1 == 0 }

func (c *StreamSeeded) Reseed(seed int64) { c.gen.Seed(seed) }

// StreamRebuilt rebuilds its generator from the seed.
type StreamRebuilt struct {
	gen stream
}

func (c *StreamRebuilt) Access(it uint64) bool { return c.gen.Int63()&1 == 0 }

func (c *StreamRebuilt) Reseed(seed int64) { c.gen = newStream(seed) }

// SourceRebuilt holds a bare rand.Source and rebuilds it.
type SourceRebuilt struct {
	src rand.Source
}

func (c *SourceRebuilt) Access(it uint64) bool { return c.src.Int63()&1 == 0 }

func (c *SourceRebuilt) Reseed(seed int64) { c.src = rand.NewSource(seed) }
