package adversary

import (
	"fmt"

	"gccache/internal/bounds"
	"gccache/internal/cachesim"
	"gccache/internal/model"
)

// Config parameterizes the GC lower-bound constructions of §4.
type Config struct {
	// OptSize is h, the offline comparison size.
	OptSize int
	// Phases is the number of construction phases to run after warmup.
	Phases int
	// Record keeps the generated trace in the result.
	Record bool
}

func (cfg Config) validate(k int) error {
	if cfg.OptSize < 1 || cfg.OptSize > k {
		return fmt.Errorf("adversary: h=%d outside [1, k=%d]", cfg.OptSize, k)
	}
	if cfg.Phases < 1 {
		return fmt.Errorf("adversary: phases=%d < 1", cfg.Phases)
	}
	return nil
}

// ItemCache runs the Theorem 2 construction against c (an Item Cache —
// any policy that loads only requested items; running it against other
// policies measures how much they escape the bound). geo must be the
// cache's geometry; B = geo.BlockSize(). Requires h ≥ B and k ≥ h.
//
// Per phase the adversary touches ⌈(k−h+1)/B⌉ fresh blocks item by item
// (step 2), then requests h−B absent members of a k+1-item candidate set
// (step 4). The offline strategy pays one load per fresh block and hits
// everything else, so OptMisses = phases·⌈(k−h+1)/B⌉.
func ItemCache(c cachesim.Cache, geo model.Geometry, cfg Config) (Result, error) {
	k := c.Capacity()
	B := geo.BlockSize()
	if err := cfg.validate(k); err != nil {
		return Result{}, err
	}
	h := cfg.OptSize
	if h < B {
		return Result{}, fmt.Errorf("adversary: Theorem 2 needs h ≥ B (h=%d B=%d)", h, B)
	}
	d := newDriver(c, geo, cfg.Record)
	c.Reset()

	// Warmup: fill the online cache with fresh items and seed the
	// simulated OPT contents with h of them.
	var warm []model.Item
	for len(warm) < k {
		for _, it := range d.freshBlock() {
			if len(warm) >= k {
				break
			}
			d.request(it)
			warm = append(warm, it)
		}
	}
	optSet := append([]model.Item(nil), warm[len(warm)-h:]...)
	d.resetCounters()

	blocksPerPhase := ceilDiv(k-h+1, B)
	optMisses := int64(0)
	for p := 0; p < cfg.Phases; p++ {
		// Step 2: fresh blocks, every item accessed.
		step2 := make([]model.Item, 0, blocksPerPhase*B)
		var lastBlock []model.Item
		for bi := 0; bi < blocksPerPhase; bi++ {
			blk := d.freshBlock()
			for _, it := range blk {
				d.request(it)
			}
			step2 = append(step2, blk...)
			lastBlock = blk
			optMisses++ // OPT loads the whole block on its first access
		}
		// Step 3: candidate set of ≥ k+1 items.
		candidates := append(append([]model.Item(nil), optSet...), step2...)
		// Step 4: h−B requests to absent candidates; OPT hits all.
		step4 := make([]model.Item, 0, h-B)
		for n := 0; n < h-B; n++ {
			it, ok := pickAbsent(c, candidates)
			if !ok {
				break // cache covers all candidates; nothing hurts
			}
			d.request(it)
			step4 = append(step4, it)
		}
		// OPT's end-of-phase contents: the step-4 items plus the last
		// fresh block (h−B + B = h).
		optSet = optSet[:0]
		optSet = append(optSet, step4...)
		optSet = append(optSet, lastBlock...)
		if len(optSet) > h {
			optSet = optSet[:h]
		}
	}
	return Result{
		Policy:       c.Name(),
		OnlineMisses: d.misses,
		OptMisses:    optMisses,
		Accesses:     d.access,
		Phases:       cfg.Phases,
		BoundClaim:   bounds.ItemCacheLB(float64(k), float64(h), float64(B)),
		Trace:        d.trace,
	}, nil
}

// BlockCache runs the Theorem 3 construction against c (a Block Cache).
// Requires ⌈k/B⌉ ≥ h (otherwise the bound is infinite: the pollution
// effect leaves the block cache no usable space).
//
// Per phase the adversary touches one item in each of ⌈k/B⌉−h+1 fresh
// blocks (step 2), then requests h−1 absent members of a ⌈k/B⌉+1-item
// single-item-per-block candidate set (step 4). The offline strategy pays
// only the fresh-block loads.
func BlockCache(c cachesim.Cache, geo model.Geometry, cfg Config) (Result, error) {
	k := c.Capacity()
	B := geo.BlockSize()
	if err := cfg.validate(k); err != nil {
		return Result{}, err
	}
	h := cfg.OptSize
	frames := k / B
	if frames < h {
		return Result{}, fmt.Errorf("adversary: Theorem 3 needs ⌊k/B⌋ ≥ h (k=%d B=%d h=%d)", k, B, h)
	}
	d := newDriver(c, geo, cfg.Record)
	c.Reset()

	// Warmup: one item from each of `frames` fresh blocks fills a block
	// cache; OPT holds the last h of them (one per block, as the proof
	// assumes).
	warm := make([]model.Item, 0, frames)
	for len(warm) < frames {
		blk := d.freshBlock()
		d.request(blk[0])
		warm = append(warm, blk[0])
	}
	optSet := append([]model.Item(nil), warm[len(warm)-h:]...)
	d.resetCounters()

	blocksPerPhase := frames - h + 1
	optMisses := int64(0)
	for p := 0; p < cfg.Phases; p++ {
		step2 := make([]model.Item, 0, blocksPerPhase)
		for bi := 0; bi < blocksPerPhase; bi++ {
			blk := d.freshBlock()
			d.request(blk[0])
			step2 = append(step2, blk[0])
			optMisses++
		}
		candidates := append(append([]model.Item(nil), optSet...), step2...)
		step4 := make([]model.Item, 0, h-1)
		for n := 0; n < h-1; n++ {
			it, ok := pickAbsent(c, candidates)
			if !ok {
				break
			}
			d.request(it)
			step4 = append(step4, it)
		}
		optSet = optSet[:0]
		optSet = append(optSet, step4...)
		optSet = append(optSet, step2[len(step2)-1])
	}
	return Result{
		Policy:       c.Name(),
		OnlineMisses: d.misses,
		OptMisses:    optMisses,
		Accesses:     d.access,
		Phases:       cfg.Phases,
		BoundClaim:   bounds.BlockCacheLB(float64(k), float64(h), float64(B)),
		Trace:        d.trace,
	}, nil
}

// General runs the Theorem 4 construction against an arbitrary
// deterministic policy. Per phase, for each of ⌈(k−h+1)/B⌉ fresh blocks
// it keeps requesting items of the block that the cache does not hold
// until none remain (the policy's effective a); then requests h−aMax
// absent candidates. The offline strategy pays one load per fresh block.
// The result's BoundClaim uses the *measured* maximum a of the run.
func General(c cachesim.Cache, geo model.Geometry, cfg Config) (Result, error) {
	k := c.Capacity()
	B := geo.BlockSize()
	if err := cfg.validate(k); err != nil {
		return Result{}, err
	}
	h := cfg.OptSize
	d := newDriver(c, geo, cfg.Record)
	c.Reset()

	var warm []model.Item
	for len(warm) < k {
		for _, it := range d.freshBlock() {
			if len(warm) >= k {
				break
			}
			d.request(it)
			warm = append(warm, it)
		}
	}
	optSet := append([]model.Item(nil), warm[len(warm)-h:]...)
	d.resetCounters()

	blocksPerPhase := ceilDiv(k-h+1, B)
	optMisses := int64(0)
	aMaxRun := 1
	for p := 0; p < cfg.Phases; p++ {
		step2 := make([]model.Item, 0, blocksPerPhase*B)
		aMax := 1
		var lastAccessed []model.Item
		for bi := 0; bi < blocksPerPhase; bi++ {
			blk := d.freshBlock()
			accessed := make([]model.Item, 0, len(blk))
			// While some item of the block is absent, request it.
			for {
				it, ok := pickAbsent(c, blk)
				if !ok {
					break
				}
				d.request(it)
				accessed = append(accessed, it)
				if len(accessed) >= len(blk) {
					break
				}
			}
			if len(accessed) == 0 {
				// Degenerate: the policy prefetched the whole fresh block
				// without any request (impossible for demand policies).
				accessed = append(accessed, blk[0])
				d.request(blk[0])
			}
			if len(accessed) > aMax {
				aMax = len(accessed)
			}
			step2 = append(step2, blk...)
			lastAccessed = accessed
			optMisses++ // OPT loads the accessed items in one unit-cost load
		}
		if aMax > aMaxRun {
			aMaxRun = aMax
		}
		candidates := append(append([]model.Item(nil), optSet...), step2...)
		step4 := make([]model.Item, 0, max(0, h-aMax))
		for n := 0; n < h-aMax; n++ {
			it, ok := pickAbsent(c, candidates)
			if !ok {
				break
			}
			d.request(it)
			step4 = append(step4, it)
		}
		optSet = optSet[:0]
		optSet = append(optSet, step4...)
		optSet = append(optSet, lastAccessed...)
		for _, it := range step2 {
			if len(optSet) >= h {
				break
			}
			optSet = append(optSet, it)
		}
		if len(optSet) > h {
			optSet = optSet[:h]
		}
	}
	return Result{
		Policy:       c.Name(),
		OnlineMisses: d.misses,
		OptMisses:    optMisses,
		Accesses:     d.access,
		Phases:       cfg.Phases,
		BoundClaim:   bounds.GeneralLB(float64(k), float64(h), float64(B), float64(aMaxRun)),
		Trace:        d.trace,
	}, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
