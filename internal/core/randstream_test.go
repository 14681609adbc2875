package core

import (
	"math"
	"math/rand"
	"testing"

	"gccache/internal/model"
)

// randStreamSeeds covers math/rand's seed reduction: 0 and 1<<31-1 both
// become 89482311, negatives wrap, and the int64 extremes reduce modulo
// 2^31-1.
var randStreamSeeds = []int64{0, 1, -1, 89482311, 1<<31 - 1, math.MaxInt64, math.MinInt64}

func newRandStream(seed int64) *randStream {
	s := new(randStream)
	s.Seed(seed)
	return s
}

// TestRandStreamMatchesSource compares well past the seeded batch, so
// about 1650 refills of the recurrence are checked per seed.
func TestRandStreamMatchesSource(t *testing.T) {
	for _, seed := range randStreamSeeds {
		s, src := newRandStream(seed), rand.NewSource(seed)
		for n := 0; n < 1_000_000; n++ {
			if got, want := s.Int63(), src.Int63(); got != want {
				t.Fatalf("seed %d: Int63 output %d = %d, math/rand %d", seed, n, got, want)
			}
		}
	}
}

func TestRandStreamIntnMatchesRand(t *testing.T) {
	ns := []int{1, 2, 3, 63, 64, 192, 4096, 4097, 1<<30 + 3}
	for _, seed := range randStreamSeeds {
		s, r := newRandStream(seed), rand.New(rand.NewSource(seed))
		for k := 0; k < 100_000; k++ {
			n := ns[k%len(ns)]
			if got, want := s.Intn(n), r.Intn(n); got != want {
				t.Fatalf("seed %d: draw %d: Intn(%d) = %d, math/rand %d", seed, k, n, got, want)
			}
		}
	}
}

func TestRandStreamShuffleMatchesRand(t *testing.T) {
	for _, seed := range randStreamSeeds {
		s, r := newRandStream(seed), rand.New(rand.NewSource(seed))
		for round := 0; round < 20; round++ {
			for n := 0; n <= 130; n++ {
				got := make([]model.Item, n)
				want := make([]model.Item, n)
				for i := range got {
					got[i], want[i] = model.Item(i), model.Item(i)
				}
				s.shuffle(got)
				r.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				if !equalItems(got, want) {
					t.Fatalf("seed %d round %d: shuffle of %d = %v, math/rand %v", seed, round, n, got, want)
				}
			}
		}
	}
}

// TestRandStreamSeedRestarts checks that Seed on a used stream, midway
// through a batch, restarts it exactly.
func TestRandStreamSeedRestarts(t *testing.T) {
	s := newRandStream(5)
	for range 1000 {
		s.Uint64()
	}
	s.Seed(-1)
	src := rand.NewSource(-1)
	for n := 0; n < 2*rngLen; n++ {
		if got, want := s.Int63(), src.Int63(); got != want {
			t.Fatalf("after reseed, output %d = %d, math/rand %d", n, got, want)
		}
	}
}
