// Package concurrent provides a thread-safe, sharded GC cache for
// parallel trace replay. Real deployments of the paper's setting (shared
// DRAM caches, storage-server buffer pools) serve many request streams
// at once; Sharded partitions the item universe by *block* across
// independently locked policy instances, so every unit-cost block load —
// the operation the GC model prices — stays entirely within one shard
// and needs exactly one lock acquisition.
package concurrent

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/trace"
)

// Sharded is a lock-striped cache composed of per-shard policy
// instances. It implements cachesim.Cache, so it can also be driven
// single-threaded, validated, and compared against its flat equivalent.
type Sharded struct {
	geo    model.Geometry
	shards []shard
	mask   uint64
	name   string
}

type shard struct {
	mu sync.Mutex
	//gclint:guardedby mu
	c cachesim.Cache
	//gclint:guardedby mu
	rec *cachesim.Recorder
	// Lock-contention counters (atomics, not extra locks): acquired is
	// every Access lock acquisition; contended counts the ones where the
	// lock was already held and the caller had to wait.
	acquired  atomic.Int64
	contended atomic.Int64
	// pad keeps shard headers off shared cache lines under contention.
	_ [64]byte
}

// NewSharded builds a sharded cache with nShards power-of-two shards;
// build constructs each shard's policy with its share of the total
// capacity. The geometry must match the one the shard policies use.
func NewSharded(nShards, totalCapacity int, geo model.Geometry,
	build func(shardCapacity int) cachesim.Cache) (*Sharded, error) {
	return newSharded(nShards, totalCapacity, geo, 0, build)
}

// NewShardedBounded is NewSharded with every shard's recorder presized
// for item IDs [0, universe). It stays for the benchmark module; new
// code calls NewSharded.
func NewShardedBounded(nShards, totalCapacity int, geo model.Geometry, universe int,
	build func(shardCapacity int) cachesim.Cache) (*Sharded, error) {
	return newSharded(nShards, totalCapacity, geo, universe, build)
}

// newSharded is NewSharded with recorders presized for item IDs
// [0, universe).
func newSharded(nShards, totalCapacity int, geo model.Geometry, universe int,
	build func(shardCapacity int) cachesim.Cache) (*Sharded, error) {
	if nShards < 1 || nShards&(nShards-1) != 0 {
		return nil, fmt.Errorf("concurrent: shard count %d is not a positive power of two", nShards)
	}
	if totalCapacity < nShards {
		return nil, fmt.Errorf("concurrent: capacity %d below one item per shard (%d)", totalCapacity, nShards)
	}
	if geo == nil {
		return nil, fmt.Errorf("concurrent: nil geometry")
	}
	s := &Sharded{geo: geo, shards: make([]shard, nShards), mask: uint64(nShards - 1)}
	per := totalCapacity / nShards
	for i := range s.shards {
		c := build(per)
		if c == nil {
			return nil, fmt.Errorf("concurrent: builder returned nil for shard %d", i)
		}
		s.shards[i].c = c
		s.shards[i].rec = cachesim.NewRecorder(c.Name(), universe)
	}
	s.name = s.shards[0].c.Name()
	if nShards > 1 {
		s.name = fmt.Sprintf("sharded(%d×%s)", nShards, s.name)
	}
	return s, nil
}

// shardIndex hashes the item's *block* so all siblings share a shard.
//
//gclint:hotpath
func (s *Sharded) shardIndex(it model.Item) int {
	b := uint64(s.geo.BlockOf(it))
	// splitmix64-style finalizer for uniform shard selection.
	b ^= b >> 30
	b *= 0xbf58476d1ce4e5b9
	b ^= b >> 27
	b *= 0x94d049bb133111eb
	b ^= b >> 31
	return int(b & s.mask)
}

func (s *Sharded) shardOf(it model.Item) *shard {
	return &s.shards[s.shardIndex(it)]
}

// Name implements cachesim.Cache. A 1-shard cache replays exactly as
// its policy does, so it takes the policy's name; more shards read
// "sharded(N×policy)". The name is computed once at construction so
// Stats (which stamps it on every merge) stays off the allocator.
func (s *Sharded) Name() string { return s.name }

// Access implements cachesim.Cache; it is safe for concurrent use. The
// returned Loaded and Evicted lists belong to the shard's policy, which
// reuses them on its next access: once other goroutines call Access,
// only Hit is safe to read.
func (s *Sharded) Access(it model.Item) cachesim.Access {
	sh := s.shardOf(it)
	if !sh.mu.TryLock() {
		sh.contended.Add(1)
		sh.mu.Lock()
	}
	sh.acquired.Add(1)
	a := sh.c.Access(it)
	sh.rec.Observe(it, a)
	sh.mu.Unlock()
	return a
}

// Contains implements cachesim.Cache.
func (s *Sharded) Contains(it model.Item) bool {
	sh := s.shardOf(it)
	sh.mu.Lock()
	ok := sh.c.Contains(it)
	sh.mu.Unlock()
	return ok
}

// Len implements cachesim.Cache (sums shard contents; the value is a
// snapshot, exact only when quiescent).
func (s *Sharded) Len() int {
	total := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		total += s.shards[i].c.Len()
		s.shards[i].mu.Unlock()
	}
	return total
}

// Capacity implements cachesim.Cache. Shard capacities never change
// after construction, but the policy pointer itself is guarded, so take
// the lock like Len does — Capacity is nowhere near a hot path.
func (s *Sharded) Capacity() int {
	total := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		total += s.shards[i].c.Capacity()
		s.shards[i].mu.Unlock()
	}
	return total
}

// Reset implements cachesim.Cache. An attached probe survives the
// reset; the contention counters restart at zero.
func (s *Sharded) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.c.Reset()
		sh.rec.Reset(sh.c.Name())
		sh.acquired.Store(0)
		sh.contended.Store(0)
		sh.mu.Unlock()
	}
}

// SetProbe implements cachesim.Instrumented, fanning the probe out to
// every shard's recorder, which reports each access, and to its policy
// when instrumented, which reports lifecycle records. The probe must be
// safe for concurrent use — shards call it in parallel (every probe in
// internal/obs is; a Suite can be shared across all shards).
func (s *Sharded) SetProbe(p obs.Probe) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if in, ok := sh.c.(cachesim.Instrumented); ok {
			in.SetProbe(p)
		}
		sh.rec.SetProbe(p)
		sh.mu.Unlock()
	}
}

// WithShardCache runs f on shard i's cache under that shard's Access
// mutex. It is the control-plane entry point for mutations that must
// not race Access — cachesim.LayerResizable's contract, which the
// autotune controller relies on when applying a layer resize to a
// single-shard load run. f must not call back into s.
func (s *Sharded) WithShardCache(i int, f func(cachesim.Cache)) {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f(sh.c)
}

// ShardLoad is one shard's lock-traffic snapshot.
type ShardLoad struct {
	Acquired  int64 // Access lock acquisitions
	Contended int64 // acquisitions that found the lock held
}

// ShardLoads returns per-shard lock-contention counters (a snapshot;
// exact only when quiescent). The contended/acquired ratio is the
// direct measure of whether the shard count fits the offered
// concurrency.
func (s *Sharded) ShardLoads() []ShardLoad {
	out := make([]ShardLoad, len(s.shards))
	for i := range s.shards {
		out[i] = ShardLoad{
			Acquired:  s.shards[i].acquired.Load(),
			Contended: s.shards[i].contended.Load(),
		}
	}
	return out
}

// Stats merges the per-shard statistics (quiescent snapshot).
func (s *Sharded) Stats() cachesim.Stats {
	out := cachesim.Stats{Policy: s.Name()}
	for i := range s.shards {
		s.shards[i].mu.Lock()
		out.Add(s.shards[i].rec.Stats())
		s.shards[i].mu.Unlock()
	}
	return out
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// SplitStreams deals a trace round-robin into n request streams —
// a simple way to turn a single-client trace into a concurrent workload
// while preserving each item's overall frequency. n is clamped to the
// trace length (and to at least 1), so no returned stream is ever empty
// and replay engines never spawn goroutines with nothing to do.
func SplitStreams(tr trace.Trace, n int) []trace.Trace {
	if n > len(tr) {
		n = len(tr)
	}
	if n < 1 {
		n = 1
	}
	out := make([]trace.Trace, n)
	for i, it := range tr {
		out[i%n] = append(out[i%n], it)
	}
	return out
}
