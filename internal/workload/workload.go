// Package workload generates synthetic request traces with controllable
// temporal and spatial locality. The generators cover the regimes the
// paper's analysis distinguishes: pure temporal locality (hot items, one
// per block), pure spatial locality (sequential block sweeps), tunable
// mixtures (block runs with a chosen mean run length), and the classic
// skewed-popularity and scan patterns real cache studies use.
//
// All generators are deterministic given their seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"gccache/internal/model"
	"gccache/internal/trace"
	"gccache/internal/zipf"
)

// Sequential returns a trace scanning length consecutive items starting
// at start — maximal spatial locality, no temporal reuse.
func Sequential(start model.Item, length int) trace.Trace {
	tr := make(trace.Trace, length)
	for i := range tr {
		tr[i] = start + model.Item(i)
	}
	return tr
}

// CyclicScan repeatedly sweeps a universe of n consecutive items until
// the trace reaches length — the classic LRU-worst-case loop with full
// spatial locality inside each sweep.
func CyclicScan(n, length int) trace.Trace {
	if n < 1 {
		n = 1
	}
	tr := make(trace.Trace, length)
	for i := range tr {
		tr[i] = model.Item(i % n)
	}
	return tr
}

// Stride accesses items 0, s, 2s, … (mod n·s): one item per block when
// s ≥ B, eliminating spatial locality while keeping a cyclic reuse
// pattern.
func Stride(n, s, length int) trace.Trace {
	if n < 1 {
		n = 1
	}
	if s < 1 {
		s = 1
	}
	tr := make(trace.Trace, length)
	for i := range tr {
		tr[i] = model.Item((i % n) * s)
	}
	return tr
}

// Zipf draws length requests from a Zipf(s) distribution over a universe
// of n items — heavy temporal locality on the popular head. Items are
// identified directly by rank, so with the Fixed(B) geometry popular
// items cluster into popular blocks, giving mild spatial locality; pass
// the result through Scatter to remove it. A skew s ≤ 1 is raised to
// 1.0000001; s must be finite, and Zipf panics otherwise (FromSpec
// checks a spec's skew first).
func Zipf(n int, s float64, length int, seed int64) trace.Trace {
	if n < 1 {
		n = 1
	}
	if s <= 1 {
		s = 1.0000001 // the sampler requires s > 1
	}
	rng := rand.New(rand.NewSource(seed))
	z, err := zipf.New(rng, s, uint64(n-1))
	if err != nil {
		panic("workload: Zipf: " + err.Error())
	}
	tr := make(trace.Trace, length)
	for i := range tr {
		tr[i] = model.Item(z.Uint64())
	}
	return tr
}

// Scatter remaps each distinct item of tr to a pseudo-random sparse
// address so that no two trace items share a block (for any block size up
// to minGap). It preserves the temporal reuse pattern exactly while
// destroying spatial locality.
func Scatter(tr trace.Trace, minGap int, seed int64) trace.Trace {
	if minGap < 1 {
		minGap = 1
	}
	rng := rand.New(rand.NewSource(seed))
	remap := make(map[model.Item]model.Item, 64)
	next := uint64(0)
	out := make(trace.Trace, len(tr))
	for i, it := range tr {
		m, ok := remap[it]
		if !ok {
			// Leave a random extra gap so items land in distinct,
			// unaligned blocks.
			next += uint64(minGap) + uint64(rng.Intn(minGap))
			m = model.Item(next)
			remap[it] = m
		}
		out[i] = m
	}
	return out
}

// BlockRunsConfig parameterizes BlockRuns.
type BlockRunsConfig struct {
	// NumBlocks is the number of distinct blocks in the universe.
	NumBlocks int
	// BlockSize is B, the geometry's block size.
	BlockSize int
	// MeanRunLength is the average number of distinct items touched per
	// excursion into a block, in [1, BlockSize]: 1 yields no spatial
	// locality, BlockSize yields full-block sweeps.
	MeanRunLength float64
	// ZipfS skews block popularity when > 1; 0 or 1 means uniform.
	ZipfS float64
	// Length is the number of requests to generate.
	Length int
	// Seed drives all randomness.
	Seed int64
}

// BlockRuns generates the package's main tunable-locality workload: it
// repeatedly picks a block (uniformly or Zipf-skewed), then touches a
// geometrically distributed number of consecutive items inside it. The
// f/g locality ratio of the result tracks MeanRunLength.
func BlockRuns(cfg BlockRunsConfig) (trace.Trace, error) {
	if cfg.NumBlocks < 1 || cfg.BlockSize < 1 || cfg.Length < 0 ||
		math.IsNaN(cfg.ZipfS) || math.IsInf(cfg.ZipfS, 0) {
		return nil, fmt.Errorf("workload: bad BlockRuns config %+v", cfg)
	}
	if cfg.MeanRunLength < 1 {
		cfg.MeanRunLength = 1
	}
	if cfg.MeanRunLength > float64(cfg.BlockSize) {
		cfg.MeanRunLength = float64(cfg.BlockSize)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var z *zipf.Sampler
	if cfg.ZipfS > 1 {
		var err error
		if z, err = zipf.New(rng, cfg.ZipfS, uint64(cfg.NumBlocks-1)); err != nil {
			return nil, fmt.Errorf("workload: BlockRuns: %w", err)
		}
	}
	// Geometric run length with mean m: success probability 1/m,
	// truncated at BlockSize.
	p := 1 / cfg.MeanRunLength
	tr := make(trace.Trace, 0, cfg.Length)
	for len(tr) < cfg.Length {
		var blk uint64
		if z != nil {
			blk = z.Uint64()
		} else {
			blk = uint64(rng.Intn(cfg.NumBlocks))
		}
		runLen := 1
		for runLen < cfg.BlockSize && rng.Float64() > p {
			runLen++
		}
		start := 0
		if runLen < cfg.BlockSize {
			start = rng.Intn(cfg.BlockSize - runLen + 1)
		}
		base := blk * uint64(cfg.BlockSize)
		for j := 0; j < runLen && len(tr) < cfg.Length; j++ {
			tr = append(tr, model.Item(base+uint64(start+j)))
		}
	}
	return tr, nil
}

// HotCold interleaves a small hot set (one item per block, pure temporal
// locality) with cold sequential scans (pure spatial locality): the
// mixture that separates IBLP from both single-granularity baselines.
type HotCold struct {
	// HotItems is the number of hot items; hot item j lives in block j
	// (spread out with the given BlockSize so each occupies its own
	// block).
	HotItems int
	// BlockSize spaces the hot items apart.
	BlockSize int
	// HotFraction is the probability a request goes to the hot set.
	HotFraction float64
	// ColdUniverse is the number of cold items scanned sequentially,
	// starting above the hot region.
	ColdUniverse int
	// Length and Seed as usual.
	Length int
	Seed   int64
}

// Generate produces the trace.
func (h HotCold) Generate() (trace.Trace, error) {
	if h.HotItems < 1 || h.BlockSize < 1 || h.ColdUniverse < 1 || h.Length < 0 {
		return nil, fmt.Errorf("workload: bad HotCold config %+v", h)
	}
	if h.HotFraction < 0 || h.HotFraction > 1 {
		return nil, fmt.Errorf("workload: HotFraction %v outside [0,1]", h.HotFraction)
	}
	rng := rand.New(rand.NewSource(h.Seed))
	coldBase := uint64(h.HotItems+1) * uint64(h.BlockSize)
	coldPos := 0
	tr := make(trace.Trace, h.Length)
	for i := range tr {
		if rng.Float64() < h.HotFraction {
			tr[i] = model.Item(uint64(rng.Intn(h.HotItems)) * uint64(h.BlockSize))
		} else {
			tr[i] = model.Item(coldBase + uint64(coldPos))
			coldPos = (coldPos + 1) % h.ColdUniverse
		}
	}
	return tr, nil
}

// MatrixTraversal emulates the memory trace of walking an r×c matrix
// stored row-major, one element per item. rowMajor=true walks rows
// (spatially local under Fixed(B) geometry); rowMajor=false walks columns
// (one item per block when c ≥ B).
func MatrixTraversal(r, c int, rowMajor bool, passes int) trace.Trace {
	tr := make(trace.Trace, 0, r*c*passes)
	for p := 0; p < passes; p++ {
		if rowMajor {
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					tr = append(tr, model.Item(i*c+j))
				}
			}
		} else {
			for j := 0; j < c; j++ {
				for i := 0; i < r; i++ {
					tr = append(tr, model.Item(i*c+j))
				}
			}
		}
	}
	return tr
}

// Phased concatenates sub-traces, modeling programs whose locality
// characteristics change over time.
func Phased(phases ...trace.Trace) trace.Trace { return trace.Concat(phases...) }

// Drifting generates a workload whose locality regime changes over time:
// alternating epochs of temporal traffic (single-block hot items) and
// spatial traffic (full-block sweeps). It exercises policies' ability to
// re-adapt — fixed partitions are tuned for at most one epoch type.
type Drifting struct {
	// BlockSize is B.
	BlockSize int
	// HotItems is the temporal epochs' working-set size (items, one per
	// block).
	HotItems int
	// SweepBlocks is the spatial epochs' cycle length in blocks.
	SweepBlocks int
	// EpochLength is the number of requests per epoch.
	EpochLength int
	// Epochs is the number of epochs (alternating, temporal first).
	Epochs int
}

// Generate produces the trace.
func (d Drifting) Generate() (trace.Trace, error) {
	if d.BlockSize < 1 || d.HotItems < 1 || d.SweepBlocks < 1 ||
		d.EpochLength < 0 || d.Epochs < 0 {
		return nil, fmt.Errorf("workload: bad Drifting config %+v", d)
	}
	tr := make(trace.Trace, 0, d.EpochLength*d.Epochs)
	sweepBase := uint64(d.HotItems+1) * uint64(d.BlockSize)
	for e := 0; e < d.Epochs; e++ {
		if e%2 == 0 {
			for n := 0; n < d.EpochLength; n++ {
				tr = append(tr, model.Item(uint64(n%d.HotItems)*uint64(d.BlockSize)))
			}
		} else {
			span := d.SweepBlocks * d.BlockSize
			for n := 0; n < d.EpochLength; n++ {
				tr = append(tr, model.Item(sweepBase+uint64(n%span)))
			}
		}
	}
	return tr, nil
}

// StorageServer models a block-storage request mix: a few sequential
// streams (backup/scan traffic, spatially perfect), uniform random small
// reads (no locality), and Zipf-hot metadata blocks accessed at item
// granularity — the trace shape of the storage systems the paper's DRAM
// cache citations serve.
type StorageServer struct {
	// BlockSize is B.
	BlockSize int
	// Streams is the number of concurrent sequential streams.
	Streams int
	// RandomUniverse is the item universe of the random-read component.
	RandomUniverse int
	// MetaBlocks is the number of hot metadata blocks (Zipf-weighted).
	MetaBlocks int
	// Mix gives the per-request probabilities of (stream, random, meta);
	// they must be nonnegative and sum to ≤ 1, with the remainder going
	// to the stream component.
	RandomFrac, MetaFrac float64
	Length               int
	Seed                 int64
}

// Generate produces the trace. The three components occupy disjoint,
// contiguous address regions at block-aligned bases: the streams first,
// each with a span of at least Length items, then the random-read
// region, then the metadata blocks.
func (s StorageServer) Generate() (trace.Trace, error) {
	if s.BlockSize < 1 || s.Streams < 1 || s.RandomUniverse < 1 ||
		s.MetaBlocks < 1 || s.Length < 0 {
		return nil, fmt.Errorf("workload: bad StorageServer config %+v", s)
	}
	if s.RandomFrac < 0 || s.MetaFrac < 0 || s.RandomFrac+s.MetaFrac > 1 {
		return nil, fmt.Errorf("workload: bad StorageServer mix %v/%v", s.RandomFrac, s.MetaFrac)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	metaZipf, err := zipf.New(rng, 1.3, uint64(s.MetaBlocks-1))
	if err != nil {
		return nil, fmt.Errorf("workload: StorageServer: %w", err)
	}

	// A stream advances at most Length items, so spans of Length rounded
	// up to whole blocks never collide.
	B := uint64(s.BlockSize)
	roundUp := func(n int) uint64 { return (uint64(n) + B - 1) / B * B }
	streamSpan := roundUp(s.Length)
	randomBase := uint64(s.Streams) * streamSpan
	metaBase := randomBase + roundUp(s.RandomUniverse)
	streamPos := make([]uint64, s.Streams)
	for i := range streamPos {
		streamPos[i] = uint64(i) * streamSpan
	}
	tr := make(trace.Trace, s.Length)
	for i := range tr {
		r := rng.Float64()
		switch {
		case r < s.RandomFrac:
			tr[i] = model.Item(randomBase + uint64(rng.Intn(s.RandomUniverse)))
		case r < s.RandomFrac+s.MetaFrac:
			blk := metaZipf.Uint64()
			off := uint64(rng.Intn(2)) // metadata touches 1–2 items per block
			tr[i] = model.Item(metaBase + blk*uint64(s.BlockSize) + off)
		default:
			st := rng.Intn(s.Streams)
			tr[i] = model.Item(streamPos[st])
			streamPos[st]++
		}
	}
	return tr, nil
}
