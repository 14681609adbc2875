package scenario

import (
	"math/rand"

	"gccache/internal/model"
	"gccache/internal/zipf"
)

// Compile lowers a validated program to a Stream. Compilation is where
// the DSL's two replay-shaping decisions are made concrete:
//
//   - Instantiation: a let binding is a definition, not a shared
//     stream. Each reference builds an independent copy of the bound
//     expression, so `mix(0.5: hot, 0.5: drift(hot, …))` draws from
//     two decoupled hot streams.
//   - Seeding: every stateful node derives its RNG seed from the
//     program seed and the node's preorder instantiation index via a
//     SplitMix64 step. The walk order is deterministic, so the same
//     (program, seed) pair always yields the same request sequence —
//     and sibling nodes never share an RNG stream.

// Compile validates p and builds its streaming form with the given
// seed. The error, if any, is a positioned *Error from validation.
func Compile(p *Program, seed int64) (*Stream, error) {
	info, err := Check(p)
	if err != nil {
		return nil, err
	}
	c := &compiler{seed: seed, env: make(map[string]Expr)}
	var emit Expr
	for _, st := range p.Stmts {
		switch st := st.(type) {
		case *LetStmt:
			c.env[st.Name] = st.Expr
		case *EmitStmt:
			emit = st.Expr
		}
	}
	return &Stream{root: c.build(emit), length: info.Length}, nil
}

type compiler struct {
	seed   int64
	nextID uint64
	env    map[string]Expr
}

// derive computes the seed for the stateful node with the given
// instantiation index: a SplitMix64 output step over the program seed,
// so adjacent node indices get statistically independent streams.
func derive(seed int64, id uint64) int64 {
	z := uint64(seed) + (id+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// rng allocates the next node RNG. Construction-time only — the emit
// path never touches the allocator.
func (c *compiler) rng() (*rand.Rand, int64) {
	s := derive(c.seed, c.nextID)
	c.nextID++
	return rand.New(rand.NewSource(s)), s
}

// build lowers an expression to its node. The program has passed Check,
// so shapes are trusted here.
func (c *compiler) build(e Expr) node {
	switch e := e.(type) {
	case *Ref:
		return c.build(c.env[e.Name])
	case *Call:
		return c.buildCall(e)
	}
	panic("scenario: build on unvalidated expression")
}

func (c *compiler) buildCall(call *Call) node {
	spec, _ := lookup(call.Name)
	num := func(name string) int64 { return paramInt64(call, spec, name) }
	fnum := func(name string) float64 {
		for _, a := range call.Args {
			if a.Name == name {
				return a.Value.(*Number).Value
			}
		}
		return spec.paramNamed(name).def
	}
	var srcs []node
	var weights []float64
	for _, a := range call.Args {
		if a.Name != "" {
			continue
		}
		if a.Weight != nil {
			weights = append(weights, a.Weight.Value)
		}
		srcs = append(srcs, c.build(a.Value))
	}

	switch call.Name {
	case "seq":
		start := uint64(num("start"))
		return &seqNode{start: start, step: uint64(num("step")), cur: start}
	case "cycle":
		return &cycleNode{n: uint64(num("n")), start: uint64(num("start"))}
	case "stride":
		return &strideNode{n: uint64(num("n")), step: uint64(num("step"))}
	case "uniform":
		rng, seed := c.rng()
		return &uniformNode{n: num("n"), base: uint64(num("base")), rng: rng, seed: seed}
	case "zipf":
		rng, seed := c.rng()
		z, err := zipf.New(rng, fnum("s"), uint64(num("n")-1))
		if err != nil {
			panic("scenario: " + err.Error()) // Check bounds s to [1.0000001, 64]
		}
		return &zipfNode{base: uint64(num("base")), rng: rng, seed: seed, z: z}
	case "take":
		n := num("n")
		return &takeNode{src: srcs[0], n: n, left: n}
	case "loop":
		return &loopNode{src: srcs[0]}
	case "offset":
		return &offsetNode{src: srcs[0], by: uint64(num("by"))}
	case "spread":
		return &spreadNode{src: srcs[0], gap: uint64(num("gap"))}
	case "scatter":
		return &scatterNode{src: srcs[0], n: uint64(num("n"))}
	case "blocks":
		rng, seed := c.rng()
		run := fnum("run")
		b := num("B")
		if run > float64(b) {
			run = float64(b)
		}
		return &blocksNode{src: srcs[0], b: b, p: 1 / run, rng: rng, seed: seed}
	case "drift":
		return &driftNode{src: srcs[0], every: uint64(num("every")), step: uint64(num("step"))}
	case "splice":
		rng, seed := c.rng()
		return &spliceNode{src: srcs[0], burst: srcs[1],
			pBurst: 1 / float64(num("every")), n: num("n"), rng: rng, seed: seed}
	case "mix":
		rng, seed := c.rng()
		total := 0.0
		for _, w := range weights {
			total += w
		}
		cum := make([]float64, len(weights))
		acc := 0.0
		for i, w := range weights {
			acc += w
			cum[i] = acc / total
		}
		cum[len(cum)-1] = 1
		return &mixNode{cum: cum, srcs: srcs, rng: rng, seed: seed}
	case "interleave":
		counts := make([]int64, len(weights))
		for i, w := range weights {
			counts[i] = int64(w)
		}
		return &interleaveNode{counts: counts, srcs: srcs, left: counts[0]}
	case "concat":
		return &concatNode{srcs: srcs}
	case "ramp":
		rng, seed := c.rng()
		return &rampNode{from: srcs[0], to: srcs[1], over: float64(num("over")), rng: rng, seed: seed}
	case "diurnal":
		rng, seed := c.rng()
		return &diurnalNode{day: srcs[0], night: srcs[1], period: float64(num("period")), rng: rng, seed: seed}
	}
	panic("scenario: combinator in registry but not in compiler: " + call.Name)
}

// Stream is a compiled scenario: a deterministic, allocation-free
// trace.Source with a statically known length. It is single-pass like
// every Source, but Reset restores it to the first request for
// byte-identical re-replay (the differential tests and gcload's
// repeating load loops rely on it).
type Stream struct {
	root    node
	length  int64
	emitted int64
	cur     model.Item
}

// Next advances to the next request; it reports false after exactly
// Len() requests.
//
//gclint:hotpath
func (s *Stream) Next() bool {
	v, ok := s.root.next()
	if !ok {
		return false
	}
	s.cur = v
	s.emitted++
	return true
}

// Item returns the most recently emitted request.
func (s *Stream) Item() model.Item { return s.cur }

// Err implements trace.Source; a compiled scenario cannot fail
// mid-stream.
func (s *Stream) Err() error { return nil }

// Len returns the exact number of requests the scenario emits.
func (s *Stream) Len() int64 { return s.length }

// Emitted returns the number of requests emitted so far.
func (s *Stream) Emitted() int64 { return s.emitted }

// Reset rewinds the stream to its first request. The replayed sequence
// is byte-identical to the first pass.
func (s *Stream) Reset() {
	s.root.reset()
	s.emitted = 0
}
