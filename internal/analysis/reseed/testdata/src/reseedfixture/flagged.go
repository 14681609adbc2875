// Package reseedfixture exercises the reseed analyzer: cache-shaped
// structs (ones with an Access method) holding a *rand.Rand must
// implement Reseed(int64) that reconstructs the generator.
package reseedfixture

import "math/rand"

// NoReseed is a randomized cache with no Reseed method at all: a pooled
// sweep worker could never restart its coin flips.
type NoReseed struct { // want `NoReseed holds \*rand.Rand field rng but has no Reseed\(int64\) method`
	rng   *rand.Rand
	items []uint64
}

func (c *NoReseed) Access(it uint64) bool { return c.rng.Intn(2) == 0 }

// WrongSignature declares Reseed with the wrong parameter type.
type WrongSignature struct {
	rng *rand.Rand
}

func (c *WrongSignature) Access(it uint64) bool { return false }

func (c *WrongSignature) Reseed(seed int) { // want `WrongSignature.Reseed has signature`
	c.rng = rand.New(rand.NewSource(int64(seed)))
}

// StaleReseed has the right signature but never touches the rng, so
// reuse after Reseed still continues the old random stream.
type StaleReseed struct {
	rng   *rand.Rand
	seed  int64
	items []uint64
}

func (c *StaleReseed) Access(it uint64) bool { return c.rng.Intn(2) == 0 }

func (c *StaleReseed) Reseed(seed int64) { // want `StaleReseed.Reseed does not reconstruct the rng`
	c.seed = seed
	c.items = c.items[:0]
}

// stream is a policy-owned generator with math/rand.Source's methods,
// held by value the way core.GCM holds its copy of math/rand's stream.
type stream struct{ x uint64 }

func (s *stream) Int63() int64    { s.x = s.x*6364136223846793005 + 1; return int64(s.x >> 1) }
func (s *stream) Seed(seed int64) { s.x = uint64(seed) }
func newStream(seed int64) stream { return stream{x: uint64(seed)} }

// StaleStream's Reseed resets its items but leaves the generator
// running: the analyzer must recognise stream as an rng field.
type StaleStream struct {
	gen   stream
	items []uint64
}

func (c *StaleStream) Access(it uint64) bool { return c.gen.Int63()&1 == 0 }

func (c *StaleStream) Reseed(seed int64) { // want `StaleStream.Reseed does not reconstruct the rng`
	c.items = c.items[:0]
}

// FixedStream rebuilds the generator, but from a constant rather than
// the seed it was given.
type FixedStream struct {
	gen stream
}

func (c *FixedStream) Access(it uint64) bool { return c.gen.Int63()&1 == 0 }

func (c *FixedStream) Reseed(seed int64) { // want `FixedStream.Reseed does not reconstruct the rng`
	c.gen = newStream(42)
}

// NoReseedStream holds the generator through a pointer and has no
// Reseed at all.
type NoReseedStream struct { // want `NoReseedStream holds \*stream field gen but has no Reseed\(int64\) method`
	gen *stream
}

func (c *NoReseedStream) Access(it uint64) bool { return c.gen.Int63()&1 == 0 }
