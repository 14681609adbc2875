// Package gccache is a library for the Granularity-Change (GC) Caching
// Problem of Beckmann, Gibbons & McGuffey (SPAA 2022): caching at a
// granularity boundary, where a cache of unit-size items may load any
// subset of the requested item's block — items after the first are free.
//
// The package re-exports the stable public surface of the repository:
//
//   - the model vocabulary (items, blocks, geometries),
//   - the simulator (Cache interface, statistics, trace runner),
//   - the paper's policies — IBLP (Item-Block Layered Partitioning) and
//     GCM (Granularity-Change Marking) — plus the single-granularity
//     baselines they are analyzed against,
//   - the closed-form competitive-ratio and fault-rate bounds (Theorems
//     2–11) and the §5.3 partition-sizing rules,
//   - offline optimal baselines (Belady, exact GC-OPT for small
//     instances, bracketing heuristics),
//   - synthetic workload generators and the adaptive lower-bound
//     adversaries.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every regenerated table and figure.
package gccache

import (
	"context"
	"io"

	"gccache/internal/adversary"
	"gccache/internal/bounds"
	"gccache/internal/cachesim"
	"gccache/internal/concurrent"
	"gccache/internal/core"
	"gccache/internal/hierarchy"
	"gccache/internal/locality"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/opt"
	"gccache/internal/policy"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// Model vocabulary.
type (
	// Item identifies a unit-size cacheable datum.
	Item = model.Item
	// Block identifies a group of at most B items loadable for unit cost.
	Block = model.Block
	// Geometry partitions the item universe into blocks.
	Geometry = model.Geometry
	// Trace is an ordered sequence of item requests.
	Trace = trace.Trace
)

// NewFixedGeometry returns the aligned geometry where item i belongs to
// block i/B — the geometry of an address space split into B-item lines.
func NewFixedGeometry(B int) *model.Fixed { return model.NewFixed(B) }

// NewTableGeometry builds an explicit geometry from item lists, one block
// per list (used, e.g., by the Theorem 1 reduction's active sets).
func NewTableGeometry(blocks [][]Item) (*model.Table, error) { return model.NewTable(blocks) }

// Simulation.
type (
	// Cache is an online GC caching policy.
	Cache = cachesim.Cache
	// Access reports the effect of one request.
	Access = cachesim.Access
	// Net holds the Loaded and Evicted lists a policy reports through
	// Access. A Cache built outside this module keeps one and, on a
	// miss, calls Reset, then Load for each item it inserts and Evict
	// for each item it removes, each once, and returns Net.Miss(); a
	// hit returns Access{Hit: true}.
	Net = cachesim.Net
	// Stats aggregates hits (split into temporal and spatial), misses,
	// loads, and evictions over a run.
	Stats = cachesim.Stats
)

// ReplayOptions bounds the requested item IDs and presizes Replay's
// recorder (Universe; 0 bounds IDs at 4Mi items) and attaches an
// observability probe (Probe); the zero value attaches none.
type ReplayOptions = cachesim.ReplayOptions

// Replay drives every request of src through c from its current state
// and returns the statistics — call c.Reset() first for a cold start; a
// fresh cache needs none. Wrap an in-memory Trace with NewSliceSource.
// A nil error means every request was replayed; otherwise the partial
// statistics come back with ctx's error, the source's error, or the
// first request outside the universe (see ReplayOptions).
func Replay(ctx context.Context, c Cache, src TraceSource, opt ReplayOptions) (Stats, error) {
	return cachesim.Replay(ctx, c, src, opt)
}

// Streaming replay (see DESIGN.md, "Serving & streaming"): replaying a
// trace file through TraceScanner and Replay needs O(1) memory
// regardless of trace length, with statistics byte-identical to the
// in-memory replay.
type (
	// TraceSource is an incremental stream of item requests — the
	// streaming counterpart of Trace. Next/Item/Err follow the
	// bufio.Scanner iteration shape.
	TraceSource = trace.Source
	// TraceScanner incrementally decodes the gctrace binary format.
	TraceScanner = trace.Scanner
	// TraceTextScanner incrementally parses the one-ID-per-line text
	// format.
	TraceTextScanner = trace.TextScanner
)

// NewTraceScanner validates the gctrace binary header on r and returns
// a scanner positioned at the first request.
func NewTraceScanner(r io.Reader) (*TraceScanner, error) { return trace.NewScanner(r) }

// NewTraceTextScanner returns a scanner over the plain-text format.
func NewTraceTextScanner(r io.Reader) *TraceTextScanner { return trace.NewTextScanner(r) }

// NewSliceSource adapts an in-memory Trace to the TraceSource shape.
func NewSliceSource(tr Trace) TraceSource { return trace.NewSliceSource(tr) }

// RunFile opens path, streams the gctrace binary format through c, and
// closes the file — the one-call entry point for replaying traces
// larger than memory. universe bounds the item IDs as
// ReplayOptions.Universe does.
func RunFile(ctx context.Context, c Cache, path string, universe int) (Stats, error) {
	return cachesim.RunFile(ctx, c, path, universe)
}

// Observability (internal/obs; see DESIGN.md, "Observability").
type (
	// Probe consumes observability records: one per access, given by
	// the replay's recorder, plus the lifecycle records (marks, phase
	// resets, layer resizes) a policy reports. Attaching one costs a nil
	// check per emission site; attaching none costs nothing.
	Probe = obs.Probe
	// ProbeEvent is one record. For an access: what served it (a hit,
	// an item-layer hit, a block-layer hit or a block load), its §2
	// class (temporal hit, spatial hit or miss), the item, and the items
	// the access loaded and evicted. For a lifecycle record: its kind,
	// item and magnitude, and the items a layer resize evicted. A probe
	// gets a pointer to it, valid only during the Observe call.
	ProbeEvent = obs.Record
	// ProbeSuite bundles the ready-made probes — counters, histograms,
	// event log, miss curve — behind one Probe with text/CSV export.
	ProbeSuite = obs.Suite
)

// NewProbeSuite parses a probe spec (see obs.SpecHelp: "counters,
// events=64, reuse, ...") into a bundled probe.
func NewProbeSuite(spec string) (*ProbeSuite, error) {
	return obs.NewSuite(spec)
}

// SweepOptions sets Sweep's worker count and an optional SweepStats
// target; the zero value runs on GOMAXPROCS workers and measures
// nothing.
type SweepOptions = cachesim.SweepOptions

// SweepStats collects per-worker chunk/index/timing statistics from an
// observed sweep (SweepOptions.Stats).
type SweepStats = cachesim.SweepStats

// Sweep runs fn(i, w) for i in [0, n) on a pool of workers with
// per-worker reusable state (chunked work-stealing). Cancellation stops
// workers at the next chunk boundary and returns ctx's error; a claimed
// index always runs to completion. Pooled caches must be Reset by fn.
func Sweep[W any](ctx context.Context, n int, opt SweepOptions, newWorker func() W, fn func(i int, w W)) error {
	return cachesim.Sweep(ctx, n, opt, newWorker, fn)
}

// RunSeeds replays tr under one cache per seed in parallel and returns
// the per-seed miss ratios; caches implementing cachesim.Reseeder are
// pooled per worker instead of rebuilt per seed. Cancellation abandons
// the remaining seeds and returns ctx's error with the ratios computed
// so far (entries for seeds that never ran are zero).
func RunSeeds(ctx context.Context, build func(seed int64) Cache, tr Trace, seeds []int64) ([]float64, error) {
	return cachesim.RunSeeds(ctx, build, tr, seeds)
}

// The paper's policies (§5, §6).

// NewIBLP returns an Item-Block Layered Partitioning cache with item
// layer i and block layer b (total capacity i+b) under g.
func NewIBLP(i, b int, g Geometry) *core.IBLP { return core.NewIBLP(i, b, g) }

// NewIBLPEvenSplit returns IBLP with i = ⌈k/2⌉, b = ⌊k/2⌋ (§7.3's split).
func NewIBLPEvenSplit(k int, g Geometry) *core.IBLP { return core.NewIBLPEvenSplit(k, g) }

// NewIBLPTuned returns IBLP with the §5.3 optimal split for a known
// offline comparison size h.
func NewIBLPTuned(k, h int, g Geometry) *core.IBLP {
	i := int(bounds.OptimalItemLayer(float64(k), float64(h), float64(g.BlockSize())))
	if i < 0 || i > k {
		i = k
	}
	return core.NewIBLP(i, k-i, g)
}

// NewGCM returns a Granularity-Change Marking cache (randomized, §6.1).
func NewGCM(k int, g Geometry, seed int64) *core.GCM { return core.NewGCM(k, g, seed) }

// NewAdaptiveIBLP returns the ghost-list extension of IBLP that learns
// its item/block split online — this repository's answer to the §5.3
// observation that the optimal split depends on the unknown comparison
// size (Figure 6).
func NewAdaptiveIBLP(k int, g Geometry) *core.AdaptiveIBLP { return core.NewAdaptiveIBLP(k, g) }

// Ablation variants of the paper's design choices (§5.1, §6.1) — kept in
// the public API so downstream studies can reproduce the ablations.

// NewIBLPPromoteAll returns the IBLP variant whose item-layer hits also
// refresh the block layer's LRU order (violating §5.1's ordering rule).
func NewIBLPPromoteAll(i, b int, g Geometry) *core.IBLP { return core.NewIBLPPromoteAll(i, b, g) }

// NewIBLPInclusive returns the §5.1 inclusive-layers ablation (the item
// layer contributes nothing to the hit rate).
func NewIBLPInclusive(i, b int, g Geometry) *core.IBLPInclusive {
	return core.NewIBLPInclusive(i, b, g)
}

// NewIBLPExclusive returns the §5.1 exclusive-layers ablation (no
// duplication, but evicted block copies take unexpired siblings along).
func NewIBLPExclusive(i, b int, g Geometry) *core.IBLPExclusive {
	return core.NewIBLPExclusive(i, b, g)
}

// NewGCMMarkAll returns the §6.1 ablation of GCM that marks loaded
// siblings, forfeiting its pollution resistance.
func NewGCMMarkAll(k int, g Geometry, seed int64) *core.GCMMarkAll {
	return core.NewGCMMarkAll(k, g, seed)
}

// NewValidator wraps any cache with the Definition 1 model-conformance
// checker (see internal/cachesim.Validator).
func NewValidator(c Cache, g Geometry) *cachesim.Validator { return cachesim.NewValidator(c, g) }

// Baseline policies (§2).

// NewItemLRU returns the Item Cache baseline: LRU, loads only requested
// items.
func NewItemLRU(k int) *policy.ItemLRU { return policy.NewItemLRU(k) }

// NewBlockLRU returns the Block Cache baseline: loads and evicts whole
// blocks, LRU over blocks.
func NewBlockLRU(k int, g Geometry) *policy.BlockLRU { return policy.NewBlockLRU(k, g) }

// NewFIFO returns a FIFO Item Cache.
func NewFIFO(k int) *policy.FIFO { return policy.NewFIFO(k) }

// NewMarking returns the classic randomized marking Item Cache.
func NewMarking(k int, seed int64) *policy.Marking { return policy.NewMarking(k, seed) }

// NewAThreshold returns the §4.3 a-parameter policy: loads a whole block
// once a distinct items of it have been touched, evicts items LRU.
func NewAThreshold(k, a int, g Geometry) *policy.AThreshold { return policy.NewAThreshold(k, a, g) }

// NewBlockLoadItemEvict returns the a=1 policy §4.4 recommends for large
// caches: load the full block on every miss, evict items individually.
func NewBlockLoadItemEvict(k int, g Geometry) *policy.AThreshold {
	return policy.NewBlockLoadItemEvict(k, g)
}

// NewClock returns a CLOCK (second-chance) Item Cache.
func NewClock(k int) *policy.Clock { return policy.NewClock(k) }

// NewFootprint returns the history-based predicted-subset policy of the
// DRAM-cache designs the paper cites (Footprint/Unison): it learns which
// block offsets were used during the previous residency and loads exactly
// those on the next miss.
func NewFootprint(k int, g Geometry) *policy.Footprint { return policy.NewFootprint(k, g) }

// Bounds (all sizes as float64; see internal/bounds for domains).

// SleatorTarjan returns the classic k/(k−h+1) lower bound.
func SleatorTarjan(k, h float64) float64 { return bounds.SleatorTarjan(k, h) }

// ItemCacheLowerBound returns Theorem 2's bound for Item Caches.
func ItemCacheLowerBound(k, h, B float64) float64 { return bounds.ItemCacheLB(k, h, B) }

// BlockCacheLowerBound returns Theorem 3's bound for Block Caches.
func BlockCacheLowerBound(k, h, B float64) float64 { return bounds.BlockCacheLB(k, h, B) }

// GeneralLowerBound returns Theorem 4's bound for a-parameter policies.
func GeneralLowerBound(k, h, B, a float64) float64 { return bounds.GeneralLB(k, h, B, a) }

// IBLPUpperBound returns Theorem 7's bound for IBLP with layers (i, b).
func IBLPUpperBound(i, b, h, B float64) float64 { return bounds.IBLPUB(i, b, h, B) }

// IBLPKnownSizeRatio returns the §5.3 ratio for optimally split IBLP.
func IBLPKnownSizeRatio(k, h, B float64) float64 { return bounds.IBLPKnownH(k, h, B) }

// OptimalItemLayer returns the §5.3 optimal item-layer size.
func OptimalItemLayer(k, h, B float64) float64 { return bounds.OptimalItemLayer(k, h, B) }

// Locality model (§2, §7).
type (
	// LocalityFunc is a working-set function f(n) or g(n).
	LocalityFunc = locality.Func
	// LocalityProfile is a working-set function measured from a trace.
	LocalityProfile = locality.Profile
)

// MeasureItemLocality returns the exact item working-set function f of tr
// at the given window lengths.
func MeasureItemLocality(tr Trace, lengths []int) *LocalityProfile {
	return locality.MeasureItems(tr, lengths)
}

// MeasureBlockLocality returns the exact block working-set function g.
func MeasureBlockLocality(tr Trace, g Geometry, lengths []int) *LocalityProfile {
	return locality.MeasureBlocks(tr, g, lengths)
}

// MissRatioCurve returns the exact LRU miss counts of tr at the given
// cache sizes in one Mattson stack-distance pass.
func MissRatioCurve(tr Trace, sizes []int) []int64 { return locality.MissRatioCurve(tr, sizes) }

// BlockMissRatioCurve is MissRatioCurve for a block-granularity LRU with
// the given frame counts.
func BlockMissRatioCurve(tr Trace, g Geometry, frames []int) []int64 {
	return locality.BlockMissRatioCurve(tr, g, frames)
}

// FaultRateLowerBound returns Theorem 8's fault-rate bound.
func FaultRateLowerBound(k float64, f, g LocalityFunc) float64 {
	return bounds.FaultRateLB(k, f, g)
}

// IBLPFaultRateUpperBound returns Theorem 11's bound for IBLP.
func IBLPFaultRateUpperBound(i, b, B float64, f, g LocalityFunc) float64 {
	return bounds.IBLPFaultUB(i, b, B, f, g)
}

// Offline baselines.

// Belady returns the exact item-granularity offline optimum on tr.
func Belady(tr Trace, k int) int64 { return opt.Belady(tr, k) }

// EstimateOptimal brackets the GC offline optimum: Lower ≤ OPT ≤ Upper.
func EstimateOptimal(tr Trace, g Geometry, k int) opt.Estimate {
	return opt.EstimateOPT(tr, g, k)
}

// ExactOptimal solves the exact GC optimum for small instances
// (exponential; the problem is NP-complete per Theorem 1). A completed
// solve returns the certified optimum as the Anytime's Incumbent. When
// ctx ends first it returns the best incumbent and proven lower bound
// reached so far (see opt.Anytime) with an error wrapping
// opt.ErrDeadline.
func ExactOptimal(ctx context.Context, tr Trace, g Geometry, k int) (opt.Anytime, error) {
	res, _, err := opt.Exact(ctx, tr, g, k, nil)
	return res, err
}

// Workloads and adversaries.

// GenerateWorkload builds a trace from a textual spec such as
// "blockruns:blocks=512,B=64,run=16,len=100000" (see workload.SpecHelp).
func GenerateWorkload(spec string, seed int64) (Trace, error) {
	return workload.FromSpec(spec, seed)
}

// Concurrent serving.

// ShardedCache is a thread-safe lock-striped composite cache; blocks
// never straddle shards, so unit-cost loads stay single-lock.
type ShardedCache = concurrent.Sharded

// NewShardedCache builds a sharded cache of nShards power-of-two shards
// with the given total capacity; build constructs each shard's policy.
func NewShardedCache(nShards, totalCapacity int, g Geometry,
	build func(shardCapacity int) Cache) (*ShardedCache, error) {
	return concurrent.NewSharded(nShards, totalCapacity, g, build)
}

// SplitStreams deals a trace round-robin into n concurrent streams.
func SplitStreams(tr Trace, n int) []Trace { return concurrent.SplitStreams(tr, n) }

// BatchReplayConfig tunes the batched replay engine (batch size, queue
// depth, worker pinning); the zero value selects defaults.
type BatchReplayConfig = concurrent.BatchConfig

// ReplayEngine is the batched serving engine, the one concurrent replay
// path: SPSC rings, producer and worker goroutines, and batch buffers
// are built once and reused across replays, so a warm engine serves
// every subsequent Replay without touching the allocator. Bounded
// per-shard queues give backpressure, each batch is served under one
// lock acquisition, and cancellation follows the claimed-chunk
// invariant (a claimed batch completes; queued work is abandoned and
// ctx's error returned).
type ReplayEngine = concurrent.Engine

// NewReplayEngine builds a persistent engine over s with the given
// producer-slot count (Replay accepts at most that many streams; a
// ReplayStream source always feeds slot 0). Close releases the
// goroutines when the engine is done serving.
func NewReplayEngine(s *ShardedCache, producers int, cfg BatchReplayConfig) (*ReplayEngine, error) {
	return concurrent.NewEngine(s, producers, cfg)
}

// Hierarchy simulation (Figure 1's multi-level setting).
type (
	// HierarchyLevel is one level of a multi-level cache stack.
	HierarchyLevel = hierarchy.Level
	// Hierarchy is a stack of GC caches with per-level granularities.
	Hierarchy = hierarchy.Stack
)

// NewHierarchy builds a multi-level stack, fastest level first.
func NewHierarchy(levels ...HierarchyLevel) (*Hierarchy, error) { return hierarchy.New(levels...) }

// AdversaryResult reports an adaptive lower-bound run.
type AdversaryResult = adversary.Result

// RunItemCacheAdversary drives the Theorem 2 construction against c.
//
//gclint:ctxok adversary games are bounded by phases×OptSize accesses, not trace-length
func RunItemCacheAdversary(c Cache, g Geometry, h, phases int) (AdversaryResult, error) {
	return adversary.ItemCache(c, g, adversary.Config{OptSize: h, Phases: phases})
}

// RunBlockCacheAdversary drives the Theorem 3 construction against c.
//
//gclint:ctxok adversary games are bounded by phases×OptSize accesses, not trace-length
func RunBlockCacheAdversary(c Cache, g Geometry, h, phases int) (AdversaryResult, error) {
	return adversary.BlockCache(c, g, adversary.Config{OptSize: h, Phases: phases})
}

// RunGeneralAdversary drives the Theorem 4 construction against c.
//
//gclint:ctxok adversary games are bounded by phases×OptSize accesses, not trace-length
func RunGeneralAdversary(c Cache, g Geometry, h, phases int) (AdversaryResult, error) {
	return adversary.General(c, g, adversary.Config{OptSize: h, Phases: phases})
}
