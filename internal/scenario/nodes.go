package scenario

import (
	"math"
	"math/bits"
	"math/rand"

	"gccache/internal/model"
	"gccache/internal/zipf"
)

// Every combinator compiles to a node: a resettable, allocation-free
// incremental stream. next() returns the next item or false on
// exhaustion; reset() restores the node (and its whole subtree) to its
// initial state, including reseeding any RNG, so two passes over the
// same node are byte-identical. The emit path — every next() below —
// is hotpath-annotated: a compiled scenario streams millions of
// requests through the replay engines and must stay off the allocator
// in steady state (TestStreamZeroAlloc pins it).

type node interface {
	next() (model.Item, bool)
	reset()
}

// --- generators -----------------------------------------------------

type seqNode struct {
	start, step, cur uint64
}

//gclint:hotpath
func (n *seqNode) next() (model.Item, bool) {
	v := n.cur
	n.cur += n.step
	return model.Item(v), true
}

func (n *seqNode) reset() { n.cur = n.start }

type cycleNode struct {
	n, start, i uint64
}

//gclint:hotpath
func (n *cycleNode) next() (model.Item, bool) {
	v := n.start + n.i
	n.i++
	if n.i == n.n {
		n.i = 0
	}
	return model.Item(v), true
}

func (n *cycleNode) reset() { n.i = 0 }

type strideNode struct {
	n, step, i uint64
}

//gclint:hotpath
func (n *strideNode) next() (model.Item, bool) {
	v := n.i * n.step
	n.i++
	if n.i == n.n {
		n.i = 0
	}
	return model.Item(v), true
}

func (n *strideNode) reset() { n.i = 0 }

type uniformNode struct {
	n    int64
	base uint64
	seed int64
	rng  *rand.Rand
}

//gclint:hotpath
func (n *uniformNode) next() (model.Item, bool) {
	return model.Item(n.base + uint64(n.rng.Int63n(n.n))), true
}

func (n *uniformNode) reset() { n.rng.Seed(n.seed) }

type zipfNode struct {
	base uint64
	seed int64
	rng  *rand.Rand
	z    *zipf.Sampler
}

//gclint:hotpath
func (n *zipfNode) next() (model.Item, bool) {
	return model.Item(n.base + n.z.Uint64()), true
}

// reset reseeds the shared *rand.Rand; the sampler itself holds only
// immutable precomputed parameters and tables, so the draw stream
// restarts.
func (n *zipfNode) reset() { n.rng.Seed(n.seed) }

// --- transforms -----------------------------------------------------

type takeNode struct {
	src     node
	n, left int64
}

//gclint:hotpath
func (n *takeNode) next() (model.Item, bool) {
	if n.left <= 0 {
		return 0, false
	}
	v, ok := n.src.next()
	if !ok {
		n.left = 0
		return 0, false
	}
	n.left--
	return v, true
}

func (n *takeNode) reset() {
	n.left = n.n
	n.src.reset()
}

type loopNode struct {
	src node
}

//gclint:hotpath
func (n *loopNode) next() (model.Item, bool) {
	v, ok := n.src.next()
	if !ok {
		n.src.reset()
		v, ok = n.src.next()
		if !ok {
			return 0, false // empty operand: stay exhausted rather than spin
		}
	}
	return v, true
}

func (n *loopNode) reset() { n.src.reset() }

type offsetNode struct {
	src node
	by  uint64
}

//gclint:hotpath
func (n *offsetNode) next() (model.Item, bool) {
	v, ok := n.src.next()
	return v + model.Item(n.by), ok
}

func (n *offsetNode) reset() { n.src.reset() }

type spreadNode struct {
	src node
	gap uint64
}

//gclint:hotpath
func (n *spreadNode) next() (model.Item, bool) {
	v, ok := n.src.next()
	return model.Item(uint64(v) * n.gap), ok
}

func (n *spreadNode) reset() { n.src.reset() }

// scatterMul is Knuth's multiplicative-hash prime: coprime to any n
// not a multiple of it, so v ↦ (v·scatterMul) mod n permutes [0,n).
const scatterMul = 2654435761

type scatterNode struct {
	src node
	n   uint64
}

//gclint:hotpath
func (n *scatterNode) next() (model.Item, bool) {
	v, ok := n.src.next()
	if !ok {
		return 0, false
	}
	// 128-bit multiply so (v mod n)·scatterMul cannot wrap before the
	// reduction (n may be as large as 2^53).
	hi, lo := bits.Mul64(uint64(v)%n.n, scatterMul)
	return model.Item(bits.Rem64(hi, lo, n.n)), true
}

func (n *scatterNode) reset() { n.src.reset() }

type blocksNode struct {
	src  node
	b    int64   // block size B
	p    float64 // geometric stop probability = 1/run
	seed int64
	rng  *rand.Rand

	remaining int64
	nextItem  uint64
}

//gclint:hotpath
func (n *blocksNode) next() (model.Item, bool) {
	if n.remaining == 0 {
		blk, ok := n.src.next()
		if !ok {
			return 0, false
		}
		run := int64(1)
		for run < n.b && n.rng.Float64() > n.p {
			run++
		}
		start := int64(0)
		if run < n.b {
			start = n.rng.Int63n(n.b - run + 1)
		}
		n.nextItem = uint64(blk)*uint64(n.b) + uint64(start)
		n.remaining = run
	}
	v := n.nextItem
	n.nextItem++
	n.remaining--
	return model.Item(v), true
}

func (n *blocksNode) reset() {
	n.remaining = 0
	n.rng.Seed(n.seed)
	n.src.reset()
}

type driftNode struct {
	src         node
	every, step uint64
	cnt, off    uint64
}

//gclint:hotpath
func (n *driftNode) next() (model.Item, bool) {
	v, ok := n.src.next()
	if !ok {
		return 0, false
	}
	out := v + model.Item(n.off)
	n.cnt++
	if n.cnt == n.every {
		n.cnt = 0
		n.off += n.step
	}
	return out, true
}

func (n *driftNode) reset() {
	n.cnt, n.off = 0, 0
	n.src.reset()
}

type spliceNode struct {
	src, burst node
	pBurst     float64 // 1/every
	n          int64   // burst length
	seed       int64
	rng        *rand.Rand
	left       int64
}

//gclint:hotpath
func (n *spliceNode) next() (model.Item, bool) {
	if n.left > 0 {
		n.left--
		return n.burst.next()
	}
	if n.rng.Float64() < n.pBurst {
		n.left = n.n - 1
		return n.burst.next()
	}
	return n.src.next()
}

func (n *spliceNode) reset() {
	n.left = 0
	n.rng.Seed(n.seed)
	n.src.reset()
	n.burst.reset()
}

// --- multi-source combinators ---------------------------------------

type mixNode struct {
	cum  []float64 // cumulative normalized weights, last = 1
	srcs []node
	seed int64
	rng  *rand.Rand
}

//gclint:hotpath
func (n *mixNode) next() (model.Item, bool) {
	r := n.rng.Float64()
	i := 0
	for i < len(n.cum)-1 && r >= n.cum[i] {
		i++
	}
	return n.srcs[i].next()
}

func (n *mixNode) reset() {
	n.rng.Seed(n.seed)
	for _, s := range n.srcs {
		s.reset()
	}
}

type interleaveNode struct {
	counts []int64
	srcs   []node
	cur    int
	left   int64
}

//gclint:hotpath
func (n *interleaveNode) next() (model.Item, bool) {
	v, ok := n.srcs[n.cur].next()
	n.left--
	if n.left == 0 {
		n.cur++
		if n.cur == len(n.srcs) {
			n.cur = 0
		}
		n.left = n.counts[n.cur]
	}
	return v, ok
}

func (n *interleaveNode) reset() {
	n.cur, n.left = 0, n.counts[0]
	for _, s := range n.srcs {
		s.reset()
	}
}

type concatNode struct {
	srcs []node
	idx  int
}

//gclint:hotpath
func (n *concatNode) next() (model.Item, bool) {
	for n.idx < len(n.srcs) {
		v, ok := n.srcs[n.idx].next()
		if ok {
			return v, true
		}
		n.idx++
	}
	return 0, false
}

func (n *concatNode) reset() {
	n.idx = 0
	for _, s := range n.srcs {
		s.reset()
	}
}

type rampNode struct {
	from, to node
	over     float64
	i        float64
	seed     int64
	rng      *rand.Rand
}

//gclint:hotpath
func (n *rampNode) next() (model.Item, bool) {
	p := n.i / n.over
	if p > 1 {
		p = 1
	}
	n.i++
	if n.rng.Float64() < p {
		return n.to.next()
	}
	return n.from.next()
}

func (n *rampNode) reset() {
	n.i = 0
	n.rng.Seed(n.seed)
	n.from.reset()
	n.to.reset()
}

type diurnalNode struct {
	day, night node
	period     float64
	i          float64
	seed       int64
	rng        *rand.Rand
}

//gclint:hotpath
func (n *diurnalNode) next() (model.Item, bool) {
	pDay := 0.5 * (1 + math.Cos(2*math.Pi*n.i/n.period))
	n.i++
	if n.i == n.period {
		n.i = 0 // keep the phase argument small over billion-request runs
	}
	if n.rng.Float64() < pDay {
		return n.day.next()
	}
	return n.night.next()
}

func (n *diurnalNode) reset() {
	n.i = 0
	n.rng.Seed(n.seed)
	n.day.reset()
	n.night.reset()
}
