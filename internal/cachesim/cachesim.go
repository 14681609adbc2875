// Package cachesim defines the cache-policy interface of the GC caching
// simulator, the per-run statistics (including the paper's split of hits
// into temporal and spatial), and the trace runner.
//
// The simulator charges cost exactly as Definition 1 of the paper: a hit
// is free; a miss costs one unit regardless of how many items of the
// missed item's block the policy chooses to load.
package cachesim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/trace"
)

// Access describes the effect of a single request on a cache.
type Access struct {
	// Hit reports whether the requested item was in cache.
	Hit bool
	// Loaded lists the items inserted to serve a miss (the requested item
	// first, then any free siblings from the same block). Empty on hits.
	// The slice may be reused by the cache on the next call; callers that
	// retain it must copy.
	Loaded []model.Item
	// Evicted lists the items removed to make room. The slice may be
	// reused by the cache on the next call.
	Evicted []model.Item
}

// Cache is an online GC cache policy. Implementations own their state;
// the runner only drives requests and aggregates statistics.
//
// Contains must reflect the post-Access state and is what adaptive
// adversaries probe to construct worst-case traces.
type Cache interface {
	// Name identifies the policy (for reports).
	Name() string
	// Access serves one request and returns its effect.
	Access(it model.Item) Access
	// Contains reports whether it is currently cached.
	Contains(it model.Item) bool
	// Len returns the number of cached items.
	Len() int
	// Capacity returns k, the configured maximum number of cached items.
	Capacity() int
	// Reset empties the cache and clears policy state.
	Reset()
}

// Instrumented is implemented by caches that can attach an obs.Probe.
// SetProbe(nil) detaches; implementations must keep the nil fast path
// allocation-free (the zero-cost-when-nil rule, see internal/obs).
type Instrumented interface {
	SetProbe(p obs.Probe)
}

// LayerResizable is implemented by layered caches whose item/block
// partition can be repartitioned at runtime (core.IBLP and
// core.AdaptiveIBLP). SetItemLayerTarget(i) moves the item layer to i
// and the block layer to Capacity()−i, enforcing the new occupancy
// bounds immediately (evicting as needed) rather than lazily on future
// admissions — so the layer invariants hold before the next Access.
// Implementations report the move to any attached probe as
// EvLayerResize followed by per-item EvEvict events.
//
// SetItemLayerTarget is not safe for concurrent use with Access;
// callers (the autotune controller's apply path) must serialize with
// the same lock that guards Access.
type LayerResizable interface {
	// ItemLayerTarget returns the current item-layer size target.
	ItemLayerTarget() int
	// SetItemLayerTarget repartitions to an item layer of i items,
	// clamped to [0, Capacity()].
	SetItemLayerTarget(i int)
}

// Stats aggregates the outcome of running a trace through a cache.
type Stats struct {
	Policy   string
	Accesses int64
	Hits     int64
	// Misses is also the cost: each miss triggers exactly one unit-cost
	// block load.
	Misses int64
	// SpatialHits counts hits to items that were in cache only because an
	// earlier miss on a *different* item of the same block loaded them
	// (the item had not been accessed since that load). All other hits
	// are TemporalHits. SpatialHits + TemporalHits == Hits.
	SpatialHits  int64
	TemporalHits int64
	// ItemsLoaded counts every item insertion (≥ Misses).
	ItemsLoaded int64
	// Evictions counts every item removal.
	Evictions int64
}

// MissRatio returns Misses/Accesses, or 0 for an empty run.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRatio returns Hits/Accesses, or 0 for an empty run.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cost returns the total load cost charged to the cache (== Misses).
func (s Stats) Cost() int64 { return s.Misses }

// Add accumulates other into s for multi-run aggregation.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.SpatialHits += other.SpatialHits
	s.TemporalHits += other.TemporalHits
	s.ItemsLoaded += other.ItemsLoaded
	s.Evictions += other.Evictions
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: accesses=%d hits=%d (temporal=%d spatial=%d) misses=%d missRatio=%.4f",
		s.Policy, s.Accesses, s.Hits, s.TemporalHits, s.SpatialHits, s.Misses, s.MissRatio())
}

// Recorder incrementally classifies accesses into the Stats fields.
// It tracks which cached items were loaded as free siblings and never
// accessed since, so hits can be split into spatial and temporal exactly
// as §2 of the paper defines them, independent of the policy.
//
// NewRecorder tracks pristineness in a map and accepts any item ID;
// NewRecorderBounded swaps the map for a flat bitset over a declared item
// universe, which keeps the replay hot path allocation- and hash-free.
type Recorder struct {
	stats Stats
	// pristine holds items loaded by a miss on a different item and not
	// accessed since; a hit on a pristine item is a spatial hit. nil on
	// the bounded path.
	pristine map[model.Item]struct{}
	// pristineBits is the bounded-universe bitset replacement for
	// pristine; nil on the generic path.
	pristineBits []bool

	// probe, when attached, receives the recorder-view event stream
	// (EvHitTemporal / EvHitSpatial / EvMiss); nil costs one branch.
	probe obs.Probe

	// Streaming distribution state (fixed-size, updated O(1) per access,
	// never allocating): gaps between misses and items per block load.
	sinceMiss int64
	gapHist   logHist
	burstHist logHist
}

// SetProbe attaches p to receive the recorder-view event stream
// (nil detaches). The probe does not affect the accumulated Stats.
func (r *Recorder) SetProbe(p obs.Probe) { r.probe = p }

// MissGapPercentile returns the streaming q-quantile (q in [0,1]) of
// the number of accesses between successive misses — the fault rate of
// §7 seen as a distribution rather than a mean. The estimate is the
// lower bound of the log₂ bucket where the cumulative count crosses q
// (off by at most 2×); it costs O(1) memory regardless of run length.
func (r *Recorder) MissGapPercentile(q float64) int64 { return r.gapHist.percentile(q) }

// MissGapMean returns the exact mean inter-miss gap (0 if no misses).
func (r *Recorder) MissGapMean() float64 { return r.gapHist.mean() }

// LoadBurstPercentile returns the streaming q-quantile of items brought
// in per unit-cost block load (1 = no free siblings, up to B).
func (r *Recorder) LoadBurstPercentile(q float64) int64 { return r.burstHist.percentile(q) }

// LoadBurstMean returns the exact mean items per block load.
func (r *Recorder) LoadBurstMean() float64 { return r.burstHist.mean() }

// logHist is a fixed-size log₂-bucketed histogram: value v lands in
// bucket bits.Len64(v). It is the allocation-free streaming-percentile
// core shared by the recorder's always-on distribution stats (the
// attachable, synchronized variant is obs.Histogram).
type logHist struct {
	buckets [65]int64
	count   int64
	sum     int64
	max     int64
}

//gclint:hotpath
func (h *logHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *logHist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// percentile follows the ceil-rank (nearest-rank) convention of
// obs.Histogram.Percentile: the q-quantile is the bucket of the
// ceil(q·count)-th smallest sample, so the two histograms agree on
// identical data.
func (h *logHist) percentile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			return int64(1) << (i - 1)
		}
	}
	return h.max
}

// NewRecorder returns a Recorder for the named policy.
func NewRecorder(policy string) *Recorder {
	return &Recorder{
		stats:    Stats{Policy: policy},
		pristine: make(map[model.Item]struct{}),
	}
}

// NewRecorderBounded returns a Recorder that tracks pristineness in a
// flat bitset over item IDs [0, universe) — no map operations and no
// allocation per access. It falls back to the generic map Recorder when
// universe is non-positive or implausibly large. Observing an item ≥ the
// declared universe panics.
func NewRecorderBounded(policy string, universe int) *Recorder {
	if universe <= 0 || universe > MaxBoundedUniverse {
		return NewRecorder(policy)
	}
	return &Recorder{
		stats:        Stats{Policy: policy},
		pristineBits: make([]bool, universe),
	}
}

// Observe records the outcome of one request.
func (r *Recorder) Observe(it model.Item, a Access) {
	if r.pristineBits != nil {
		r.observeBounded(it, a)
		return
	}
	r.stats.Accesses++
	r.sinceMiss++
	if a.Hit {
		r.stats.Hits++
		if _, ok := r.pristine[it]; ok {
			r.stats.SpatialHits++
			delete(r.pristine, it)
			if r.probe != nil {
				r.probe.Observe(obs.Event{Kind: obs.EvHitSpatial, Item: it})
			}
		} else {
			r.stats.TemporalHits++
			if r.probe != nil {
				r.probe.Observe(obs.Event{Kind: obs.EvHitTemporal, Item: it})
			}
		}
		return
	}
	r.stats.Misses++
	r.stats.ItemsLoaded += int64(len(a.Loaded))
	r.stats.Evictions += int64(len(a.Evicted))
	r.gapHist.record(r.sinceMiss)
	r.sinceMiss = 0
	r.burstHist.record(int64(len(a.Loaded)))
	if r.probe != nil {
		r.probe.Observe(obs.Event{Kind: obs.EvMiss, Item: it})
	}
	for _, v := range a.Evicted {
		delete(r.pristine, v)
	}
	for _, l := range a.Loaded {
		if l == it {
			continue
		}
		r.pristine[l] = struct{}{}
	}
	// The requested item itself has now been accessed.
	delete(r.pristine, it)
}

// observeBounded is Observe on the bitset path; identical classification.
//
//gclint:hotpath
func (r *Recorder) observeBounded(it model.Item, a Access) {
	r.stats.Accesses++
	r.sinceMiss++
	if a.Hit {
		r.stats.Hits++
		if r.pristineBits[it] {
			r.stats.SpatialHits++
			r.pristineBits[it] = false
			if r.probe != nil {
				r.probe.Observe(obs.Event{Kind: obs.EvHitSpatial, Item: it})
			}
		} else {
			r.stats.TemporalHits++
			if r.probe != nil {
				r.probe.Observe(obs.Event{Kind: obs.EvHitTemporal, Item: it})
			}
		}
		return
	}
	r.stats.Misses++
	r.stats.ItemsLoaded += int64(len(a.Loaded))
	r.stats.Evictions += int64(len(a.Evicted))
	r.gapHist.record(r.sinceMiss)
	r.sinceMiss = 0
	r.burstHist.record(int64(len(a.Loaded)))
	if r.probe != nil {
		r.probe.Observe(obs.Event{Kind: obs.EvMiss, Item: it})
	}
	for _, v := range a.Evicted {
		r.pristineBits[v] = false
	}
	for _, l := range a.Loaded {
		if l == it {
			continue
		}
		r.pristineBits[l] = true
	}
	// The requested item itself has now been accessed.
	r.pristineBits[it] = false
}

// Stats returns the accumulated statistics.
func (r *Recorder) Stats() Stats { return r.stats }

// Reset clears the Recorder for reuse under a (possibly new) policy name,
// retaining allocated tracking state and any attached probe.
func (r *Recorder) Reset(policy string) {
	r.stats = Stats{Policy: policy}
	r.sinceMiss = 0
	r.gapHist = logHist{}
	r.burstHist = logHist{}
	if r.pristineBits != nil {
		clear(r.pristineBits)
		return
	}
	clear(r.pristine)
}

// MaxBoundedUniverse caps the item universe the bounded (flat-array)
// simulation paths will allocate for: beyond ~4M items the footprint of
// per-item arrays outweighs their constant-factor advantage and callers
// should use the generic map-based paths.
const MaxBoundedUniverse = 4 << 20

// NetChanges reconciles a step's load and eviction lists to *net*
// changes: an item that was transiently loaded and evicted (or evicted
// and reloaded) within one access is removed from both lists. Policies
// whose internal mechanics overshoot capacity mid-step call this before
// returning an Access, so that Loaded always means absent→present and
// Evicted always means present→absent.
//
// NetChanges allocates a scratch map per call; policies hold a Reconciler
// instead, which owns reusable scratch and nets in-place without
// allocating.
func NetChanges(loaded, evicted []model.Item) (netLoaded, netEvicted []model.Item) {
	if len(loaded) == 0 || len(evicted) == 0 {
		return loaded, evicted
	}
	var r Reconciler
	return r.NetChanges(loaded, evicted)
}

// Reconciler nets loaded/evicted lists (see NetChanges) using owned,
// reusable scratch. The zero value is usable and allocates its map
// scratch on first use; NewReconciler with a positive universe instead
// uses generation-stamped flat arrays indexed by item ID, making the
// netting step allocation- and hash-free on the dense path.
//
// A Reconciler is owned by a single policy instance and is not safe for
// concurrent use.
type Reconciler struct {
	// Generic path: reusable multiset scratch, cleared per call.
	counts map[model.Item]int32
	// Bounded path: net[it].count is valid iff net[it].stamp == gen.
	// Bumping gen invalidates every entry in O(1), so per-call scratch
	// reset costs nothing regardless of universe size. Stamp and count
	// share an 8-byte slot so netting one item touches one cache line,
	// not two — the lists are scattered across the universe, so every
	// touch is a likely miss and halving them is measurable.
	net []netSlot
	gen uint32
}

// netSlot is one item's generation-stamped multiset entry.
type netSlot struct {
	stamp uint32
	count int32
}

// NewReconciler returns a Reconciler for item IDs in [0, universe).
// A non-positive or implausibly large universe yields a generic
// map-scratch Reconciler that accepts any item ID.
func NewReconciler(universe int) *Reconciler {
	if universe <= 0 || universe > MaxBoundedUniverse {
		return &Reconciler{}
	}
	return &Reconciler{net: make([]netSlot, universe)}
}

// NetChanges nets the two lists in place and returns the trimmed slices.
// Semantics are identical to the package-level NetChanges.
//
//gclint:hotpath
func (r *Reconciler) NetChanges(loaded, evicted []model.Item) (netLoaded, netEvicted []model.Item) {
	if len(loaded) == 0 || len(evicted) == 0 {
		return loaded, evicted
	}
	if r.net != nil {
		return r.netBounded(loaded, evicted)
	}
	if r.counts == nil {
		r.counts = make(map[model.Item]int32, len(evicted)) //gclint:allowalloc first-use lazy init, amortized across calls
	} else {
		clear(r.counts)
	}
	for _, e := range evicted {
		r.counts[e]++
	}
	netLoaded = loaded[:0]
	for _, l := range loaded {
		if r.counts[l] > 0 {
			r.counts[l]--
			continue
		}
		netLoaded = append(netLoaded, l)
	}
	netEvicted = evicted[:0]
	for _, e := range evicted {
		// Rebuild evicted with the matched pairs removed; counts now hold
		// the *unmatched* evictions per item.
		if r.counts[e] > 0 {
			r.counts[e]--
			netEvicted = append(netEvicted, e)
		}
	}
	return netLoaded, netEvicted
}

// netBounded is NetChanges on generation-stamped flat arrays.
//
//gclint:hotpath
func (r *Reconciler) netBounded(loaded, evicted []model.Item) (netLoaded, netEvicted []model.Item) {
	r.gen++
	if r.gen == 0 {
		// uint32 wraparound: old stamps could alias the new generation.
		clear(r.net)
		r.gen = 1
	}
	gen := r.gen
	for _, e := range evicted {
		if r.net[e].stamp != gen {
			r.net[e] = netSlot{stamp: gen}
		}
		r.net[e].count++
	}
	netLoaded = loaded[:0]
	for _, l := range loaded {
		if r.net[l].stamp == gen && r.net[l].count > 0 {
			r.net[l].count--
			continue
		}
		netLoaded = append(netLoaded, l)
	}
	netEvicted = evicted[:0]
	for _, e := range evicted {
		// Every evicted item was stamped in the first pass, so the bare
		// count test is safe; counts now hold the unmatched evictions.
		if r.net[e].count > 0 {
			r.net[e].count--
			netEvicted = append(netEvicted, e)
		}
	}
	return netLoaded, netEvicted
}

// SweepOptions configures Sweep. The zero value runs on GOMAXPROCS
// workers and measures nothing.
type SweepOptions struct {
	// Workers caps the worker goroutines; ≤ 0 means GOMAXPROCS.
	Workers int
	// Stats, when non-nil, is reset on entry and then filled with one
	// slot per launched worker: that worker's chunk ("steal") count,
	// index count and busy time, so grid imbalance and stealing can be
	// read off a run instead of guessed. Nil measures and times
	// nothing. The numbers are wall-clock measurements that vary run to
	// run; they must not feed any repro artifact (see the determinism
	// analyzer's rules).
	Stats *SweepStats
}

// Sweep runs fn(i, w) for i in [0, n) on up to opt.Workers goroutines,
// where each worker goroutine owns one state value built by newWorker.
// A worker's state (typically a policy cache, or reusable scratch) is
// reused across every index that worker processes, so a sweep over a
// large grid constructs only O(workers) states instead of O(n). A
// pooled cache must be Reset (and, when randomized, re-seeded — see
// Reseeder) by fn before each point.
//
// Work is distributed in chunks via an atomic counter (work-stealing by
// range). Workers poll ctx before claiming each chunk — never
// mid-chunk, so a claimed grid point always runs to completion and
// cancellation latency is bounded by one chunk. The return is nil when
// every index ran and ctx's error when the sweep stopped early; either
// way opt.Stats reflects the work that actually happened. A panic in
// fn or newWorker stops the sweep — remaining chunks are abandoned —
// and is re-raised on the caller's goroutine once every worker has
// stopped.
func Sweep[W any](ctx context.Context, n int, opt SweepOptions, newWorker func() W, fn func(i int, w W)) error {
	st := opt.Stats
	if st != nil {
		*st = SweepStats{}
	}
	if n <= 0 {
		return nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Chunks balance stealing granularity against counter contention:
	// several chunks per worker so uneven grid points still spread, but
	// far fewer atomic operations than one per index.
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	if st != nil {
		st.Workers = make([]SweepWorkerStats, workers)
		st.Chunk = chunk
	}
	if workers <= 1 {
		w := newWorker()
		var slot *SweepWorkerStats
		if st != nil {
			slot = &st.Workers[0]
		}
		// Walk chunk by chunk (even unobserved) so cancellation is
		// checked at the engine's chunk granularity, like the parallel
		// path.
		for start := 0; start < n; start += chunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			end := start + chunk
			if end > n {
				end = n
			}
			if slot == nil {
				for i := start; i < end; i++ {
					fn(i, w)
				}
				continue
			}
			t0 := nowNano()
			for i := start; i < end; i++ {
				fn(i, w)
			}
			slot.Chunks++
			slot.Indices += int64(end - start)
			slot.BusyNanos += nowNano() - t0
		}
		return nil
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  atomic.Bool
		panicVal  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicVal = p })
					panicked.Store(true)
				}
			}()
			sweepWorker(ctx, n, chunk, &next, &panicked, st, worker, newWorker(), fn)
		}(w)
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	// Claims happen only on the way into processing a chunk, so a fully
	// claimed range means every index ran even if ctx has since ended.
	if next.Load() < int64(n) {
		return ctx.Err()
	}
	return nil
}

// sweepWorker drains chunks from the shared counter, recording
// per-worker engine stats into its own st.Workers slot when observed.
// It stops claiming when the sweep panicked elsewhere or ctx ended.
func sweepWorker[W any](ctx context.Context, n, chunk int, next *atomic.Int64, panicked *atomic.Bool,
	st *SweepStats, worker int, w W, fn func(i int, w W)) {
	for {
		if panicked.Load() || ctx.Err() != nil {
			return
		}
		start := next.Add(int64(chunk)) - int64(chunk)
		if start >= int64(n) {
			return
		}
		end := start + int64(chunk)
		if end > int64(n) {
			end = int64(n)
		}
		if st == nil {
			for i := start; i < end; i++ {
				fn(int(i), w)
			}
			continue
		}
		t0 := nowNano()
		for i := start; i < end; i++ {
			fn(int(i), w)
		}
		slot := &st.Workers[worker]
		slot.Chunks++
		slot.Indices += end - start
		slot.BusyNanos += nowNano() - t0
	}
}

// Reseeder is implemented by randomized policies whose coin flips can be
// restarted. Reseed(seed) followed by Reset must leave the policy
// indistinguishable from a freshly constructed instance with that seed —
// the property that lets sweep engines reuse one cache across grid
// points without changing any measured number.
type Reseeder interface {
	Reseed(seed int64)
}

// RunSeeds replays tr through independently seeded instances of a
// randomized policy and returns the per-seed miss ratios — the input for
// variance reporting on GCM/Marking-style policies whose behaviour
// depends on coin flips. Policies implementing Reseeder are built once
// per worker and re-seeded and Reset per point; others are rebuilt per
// point. On early stop it returns ctx's error alongside the partially
// filled slice; entries for seeds that never ran are zero.
func RunSeeds(ctx context.Context, build func(seed int64) Cache, tr trace.Trace, seeds []int64) ([]float64, error) {
	out := make([]float64, len(seeds))
	type worker struct{ cache Cache }
	err := Sweep(ctx, len(seeds), SweepOptions{}, func() *worker { return &worker{} }, func(i int, w *worker) {
		c := w.cache
		if c == nil {
			c = build(seeds[i])
			if _, ok := c.(Reseeder); ok {
				w.cache = c // reusable: future points re-seed instead of rebuild
			}
		} else {
			c.(Reseeder).Reseed(seeds[i])
			c.Reset()
		}
		// A claimed point runs to completion (Sweep's contract), so the
		// replay itself is not cancellable and, over a slice with no
		// universe bound, cannot fail.
		st, _ := Replay(context.WithoutCancel(ctx), c, trace.NewSliceSource(tr), ReplayOptions{})
		out[i] = st.MissRatio()
	})
	return out, err
}
