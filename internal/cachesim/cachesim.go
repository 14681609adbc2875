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
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"gccache/internal/bitset"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/trace"
)

// Access describes the effect of a single request on a cache.
//
// Loaded and Evicted report net changes over the whole access: Loaded
// lists exactly the items that went from absent to present, Evicted
// exactly those that went from present to absent. The two lists are
// disjoint and neither repeats an item, however the policy moved items
// internally (Changes builds lists that keep this contract).
//
// The lists live in a Net the policy owns and reuses, so an Access is
// two words: it stays in registers through every call that passes it
// on, where a value holding the two slice headers itself would be
// copied through the stack at each one. The lists stay valid until the
// next call on the same cache; callers that retain them must copy.
type Access struct {
	// Hit reports whether the requested item was in cache.
	Hit bool
	net *Net
}

// Loaded lists the items inserted to serve a miss (the requested item
// and any free siblings from the same block). Empty on hits. The list
// is expanded from the Net's runs into a slice the Net owns.
func (a Access) Loaded() []model.Item {
	if a.net == nil {
		return nil
	}
	a.net.items[0] = appendItems(a.net.items[0][:0], a.net.loaded)
	return a.net.items[0]
}

// Evicted lists the items removed to make room; a hit can evict too
// (an IBLP block-layer hit copies the item into a full item layer).
func (a Access) Evicted() []model.Item {
	if a.net == nil {
		return nil
	}
	a.net.items[1] = appendItems(a.net.items[1][:0], a.net.evicted)
	return a.net.items[1]
}

// run lists up to 64 items of one access in ascending ID order: first,
// then first+1+j for each set bit j of rest. A word of items moved at
// once is one run; an item moved alone is a run with rest 0.
type run struct {
	first model.Item
	rest  uint64
}

// mask returns r's items as bits over first: item first+j for bit j.
func (r run) mask() uint64 { return r.rest<<1 | 1 }

// countItems returns the number of items runs list.
func countItems(runs []run) int {
	n := len(runs)
	for _, r := range runs {
		n += bits.OnesCount64(r.rest)
	}
	return n
}

// appendItems appends the items of runs to dst, in order.
func appendItems(dst []model.Item, runs []run) []model.Item {
	for _, r := range runs {
		for m := r.mask(); m != 0; m &= m - 1 {
			dst = append(dst, r.first+model.Item(bits.TrailingZeros64(m)))
		}
	}
	return dst
}

// Net holds the Loaded and Evicted lists of one access, each as a
// sequence of runs; expanding the runs in order gives the list. A
// policy owns one, empties it with Reset when an access starts changing
// contents, lists each item with Load or Evict, and hands it out with
// Miss (or cachesim.Changes' Hit) in the Access it returns.
type Net struct {
	loaded, evicted []run
	// items holds the expanded lists Access.Loaded and Access.Evicted
	// return, so their storage is reused too.
	items [2][]model.Item
}

// Reset empties both lists, keeping their storage.
//
//gclint:hotpath
func (n *Net) Reset() { n.loaded, n.evicted = n.loaded[:0], n.evicted[:0] }

// Load lists x in Loaded.
//
//gclint:hotpath
func (n *Net) Load(x model.Item) { n.loaded = append(n.loaded, run{first: x}) }

// Evict lists x in Evicted.
//
//gclint:hotpath
func (n *Net) Evict(x model.Item) { n.evicted = append(n.evicted, run{first: x}) }

// Miss returns the Access of a miss whose net changes are n's lists.
//
//gclint:hotpath
func (n *Net) Miss() Access { return Access{net: n} }

// Cache is an online GC cache policy. Implementations own their state;
// the runner only drives requests and aggregates statistics.
//
// Contains must reflect the post-Access state and is what adaptive
// adversaries probe to construct worst-case traces.
type Cache interface {
	// Name identifies the policy (for reports).
	Name() string
	// Access serves one request and returns its effect, whose lists
	// stay valid until the next call on the same cache.
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
// as §2 of the paper defines them, independent of the policy. Those
// pristine items live in a bitset indexed by item ID that grows with
// the largest item loaded, so the replay hot path neither hashes nor
// allocates. It reads an access's lists as runs: a run adds a popcount
// to the counters and sets its pristine bits as one word, and one-item
// runs of one word set theirs together.
type Recorder struct {
	stats Stats
	// pristine holds the items loaded by a miss on a different item and
	// not accessed since; a hit on a pristine item is a spatial hit. An
	// evicted item's bit is left stale: it is read only on a hit, and
	// an absent item becomes present again only through a listed load,
	// which rewrites it.
	pristine bitset.Set

	// probe, when attached, receives the recorder-view event stream
	// (EvHitTemporal / EvHitSpatial / EvMiss); nil costs one branch.
	probe obs.Probe
}

// SetProbe attaches p to receive the recorder-view event stream
// (nil detaches). The probe does not affect the accumulated Stats.
func (r *Recorder) SetProbe(p obs.Probe) { r.probe = p }

// NewRecorder returns a Recorder for the named policy, presized for
// item IDs [0, min(universe, MaxUniverse)); it grows past that on
// demand, and 0 presizes nothing.
func NewRecorder(policy string, universe int) *Recorder {
	return &Recorder{
		stats:    Stats{Policy: policy},
		pristine: bitset.New(min(max(universe, 0), MaxUniverse)),
	}
}

// Observe records the outcome of one request.
//
//gclint:hotpath
func (r *Recorder) Observe(it model.Item, a Access) {
	r.stats.Accesses++
	if a.Hit {
		r.stats.Hits++
		if r.pristine.Has(uint64(it)) {
			r.stats.SpatialHits++
			r.pristine.Remove(uint64(it))
			if r.probe != nil {
				r.probe.Observe(obs.Event{Kind: obs.EvHitSpatial, Item: it})
			}
		} else {
			r.stats.TemporalHits++
			if r.probe != nil {
				r.probe.Observe(obs.Event{Kind: obs.EvHitTemporal, Item: it})
			}
		}
		// A hit can evict: an IBLP block-layer hit copies the item into
		// a full item layer. Its evictions count; no flag changes, as on
		// a miss.
		if a.net != nil {
			r.stats.Evictions += int64(countItems(a.net.evicted))
		}
		return
	}
	r.stats.Misses++
	if r.probe != nil {
		r.probe.Observe(obs.Event{Kind: obs.EvMiss, Item: it})
	}
	if n := a.net; n != nil {
		// One-item runs, as a policy that loads item by item lists
		// them, are gathered in m, the bits of word w, and set with one
		// AddWord per word: set one at a time, each would wait on the
		// store before it to the same word.
		loaded, w, m := len(n.loaded), uint64(0), uint64(0)
		for _, x := range n.loaded {
			if x.rest != 0 {
				r.pristine.AddWord(uint64(x.first), x.mask())
				loaded += bits.OnesCount64(x.rest)
				continue
			}
			if i := uint64(x.first) &^ 63; i != w {
				r.pristine.AddWord(w, m)
				w, m = i, 0
			}
			m |= 1 << (uint64(x.first) & 63)
		}
		r.pristine.AddWord(w, m)
		r.stats.ItemsLoaded += int64(loaded)
		r.stats.Evictions += int64(countItems(n.evicted))
	}
	// The requested item itself has now been accessed.
	r.pristine.Remove(uint64(it))
}

// Stats returns the accumulated statistics.
func (r *Recorder) Stats() Stats { return r.stats }

// Reset clears the Recorder for reuse under a (possibly new) policy name,
// retaining allocated tracking state and any attached probe.
func (r *Recorder) Reset(policy string) {
	r.stats = Stats{Policy: policy}
	clear(r.pristine)
}

// MaxUniverse bounds the item IDs taken from outside input when no
// universe is declared: Replay, a cluster node and gcserve's trace load
// refuse any item ≥ MaxUniverse, so the dense structures that input
// feeds never grow past it.
const MaxUniverse = 4 << 20

// CheckUniverse returns Replay's error for item largest when it is at
// or past MaxUniverse, and nil otherwise. It is the check for input read
// whole before it is served: pass the largest requested item, such as
// trace.Trace.MaxItem of a loaded trace. It compares items, not an
// exclusive bound, so no item near 2⁶⁴ wraps past it.
func CheckUniverse(largest model.Item) error {
	if largest >= MaxUniverse {
		return outsideUniverse(largest, MaxUniverse)
	}
	return nil
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
	var (
		next     atomic.Int64
		panicked atomic.Bool
	)
	if workers <= 1 {
		// The one worker runs on the caller's goroutine: indices run in
		// order and a panic in fn unwinds straight to the caller.
		sweepWorker(ctx, n, chunk, &next, &panicked, st, 0, newWorker(), fn)
	} else {
		var (
			wg        sync.WaitGroup
			panicOnce sync.Once
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
		end := min(start+int64(chunk), int64(n))
		var t0 int64
		if st != nil {
			t0 = nowNano()
		}
		for i := start; i < end; i++ {
			fn(int(i), w)
		}
		if st != nil {
			slot := &st.Workers[worker]
			slot.Chunks++
			slot.Indices += end - start
			slot.BusyNanos += nowNano() - t0
		}
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
		// replay itself is not cancellable; it fails only on an item
		// ≥ MaxUniverse, and then the ratio covers the requests before it.
		st, _ := Replay(context.WithoutCancel(ctx), c, trace.NewSliceSource(tr), ReplayOptions{})
		out[i] = st.MissRatio()
	})
	return out, err
}
