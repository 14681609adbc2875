package zipf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// callerPairs are the (s, imax) pairs the scenario corpus and the
// workload package's callers draw with: the corpus's zipf nodes, Zipf's
// default and clamped skews, StorageServer's metadata, the experiments'
// BlockRuns shapes and the examples.
var callerPairs = []struct {
	s    float64
	imax uint64
}{
	{1.2, 4095}, {1.3, 2047}, {1.5, 511}, {1.4, 1023}, {1.25, 8191},
	{1.2, 511}, {1.1, 511}, {1.0000001, 4095}, {1.3, 63}, {1.3, 1023},
	{1.2, 255}, {1.05, 49999}, {1.01, 19999},
}

// sameDraws draws n variates from a Sampler and from rand.Zipf, each on
// its own Rand seeded alike, and fails at the first difference. It then
// reseeds both Rands and checks that the streams restart together.
func sameDraws(t *testing.T, s float64, imax uint64, seed int64, n int) {
	t.Helper()
	ref := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, imax)
	r := rand.New(rand.NewSource(seed))
	z, err := New(r, s, imax)
	if err != nil {
		t.Fatalf("s=%v imax=%d: %v", s, imax, err)
	}
	for i := 0; i < n; i++ {
		if a, b := ref.Uint64(), z.Uint64(); a != b {
			t.Fatalf("s=%v imax=%d seed=%d: draw %d is %d, rand.Zipf drew %d", s, imax, seed, i, b, a)
		}
	}
	r.Seed(seed)
	ref = rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, imax)
	for i := 0; i < 100; i++ {
		if a, b := ref.Uint64(), z.Uint64(); a != b {
			t.Fatalf("s=%v imax=%d seed=%d: after reseeding, draw %d is %d, rand.Zipf drew %d", s, imax, seed, i, b, a)
		}
	}
}

// TestMatchesMathRand is the differential test: the sampler must draw
// exactly rand.Zipf's variates over the callers' (s, imax) pairs and a
// grid from s = 1.0000001 to math.MaxFloat64 and n = imax+1 from 1 to
// 2^53.
func TestMatchesMathRand(t *testing.T) {
	for i, p := range callerPairs {
		sameDraws(t, p.s, p.imax, int64(i+1), 100_000)
	}
	seed := int64(100)
	for _, s := range []float64{1.0000001, 1.001, 1.1, 1.2, 1.25, 1.3, 1.4, 1.5, 2, 3, 7} {
		for _, imax := range []uint64{0, 1, 63, 511, 2047, 4095, 8191, 1 << 20, 1<<53 - 1} {
			seed++
			sameDraws(t, s, imax, seed, 20_000)
		}
	}
	for _, s := range []float64{10, 20, 32, 64, 1000, 1e300, 1e308, math.MaxFloat64} {
		for _, imax := range []uint64{0, 1, 63, 4095, 1 << 20, 1 << 40} {
			seed++
			sameDraws(t, s, imax, seed, 20_000)
		}
	}
}

// TestNewRefusesSkew checks that New refuses a skew that is not finite
// and greater than 1, for which rand.Zipf's loop may never end.
func TestNewRefusesSkew(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1, 0.5, 0, -2} {
		if z, err := New(r, s, 10); err == nil || z != nil {
			t.Errorf("New(s=%v) = %v, %v; want an error", s, z, err)
		}
	}
}

// edges lists the values the table compares ur against for the entry
// of k, with the boundary h(k+½) and the threshold h(k−s) their guards
// surround.
func edges(z *Sampler, k int) []float64 {
	e := z.tab[k]
	fk := float64(k)
	return []float64{z.h(fk + 0.5), e.up, e.down, z.h(fk - z.s), e.acc, e.rej, e.bound}
}

// agree reports whether the tables decided the pass at ur, and if they
// did, whether they decided it as math/rand's loop body does.
func agree(z *Sampler, ur float64) (decided, same bool) {
	k, accept, done := z.table(ur)
	if !done {
		return false, true
	}
	ek, eaccept := z.exact(ur)
	return true, k == ek && accept == eaccept
}

// TestTableMatchesExactNearEdges compares the table decision with
// math/rand's loop body at every ur within 64 ulps of every tabulated
// boundary, threshold, bound and guard edge, and of the tabulated
// range's ends. A table decision there must be the exact one.
func TestTableMatchesExactNearEdges(t *testing.T) {
	const ulps = 64
	pairs := append([]struct {
		s    float64
		imax uint64
	}{{1.0000001, 1 << 20}, {1.001, 4095}, {2, 4095}, {7, 4095}, {64, 4095}, {1000, 4095}}, callerPairs[:7]...)
	for _, p := range pairs {
		z, err := New(rand.New(rand.NewSource(1)), p.s, p.imax)
		if err != nil {
			t.Fatal(err)
		}
		if len(z.tab) == 0 {
			t.Fatalf("s=%v imax=%d: no table", p.s, p.imax)
		}
		points := []float64{z.lo, z.hi, z.h(-0.5)}
		for k := range z.tab {
			points = append(points, edges(z, k)...)
		}
		decided := 0
		for _, x := range points {
			ur := x
			for i := 0; i < ulps; i++ {
				ur = math.Nextafter(ur, math.Inf(-1))
			}
			for i := 0; i <= 2*ulps; i++ {
				d, same := agree(z, ur)
				if !same {
					t.Fatalf("s=%v imax=%d: at ur=%v (%d ulps from %v) the table and math/rand's loop body disagree",
						p.s, p.imax, ur, i-ulps, x)
				}
				if d {
					decided++
				}
				ur = math.Nextafter(ur, math.Inf(1))
			}
		}
		if decided == 0 {
			t.Errorf("s=%v imax=%d: the table decided no point near its edges", p.s, p.imax)
		}
	}
}

// TestUint64ZeroAlloc pins the draw path to zero allocations.
func TestUint64ZeroAlloc(t *testing.T) {
	z, err := New(rand.New(rand.NewSource(1)), 1.3, 2047)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10_000, func() { z.Uint64() }); a != 0 {
		t.Errorf("Uint64 allocates %.1f times per call", a)
	}
}

// FuzzTableMatchesExact asserts that wherever the tables decide a
// pass, they decide it as math/rand's loop body does. The input picks
// the skew s, imax, and a raw 63-bit r, which gives ur as Float64 and
// the Uint64 loop do; the same bits also pick a tabulated value and a
// point up to 128 ulps from it.
func FuzzTableMatchesExact(f *testing.F) {
	f.Add(1.3, uint64(2047), uint64(0x5deece66d))
	f.Add(1.1, uint64(511), uint64(1)<<62)
	f.Add(1.0000001, uint64(1)<<20, uint64(12345))
	f.Add(64.0, uint64(4095), uint64(math.MaxInt64))
	f.Add(1000.0, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, s float64, imax, raw uint64) {
		z, err := New(rand.New(rand.NewSource(1)), s, imax)
		if err != nil {
			return
		}
		check := func(ur float64, what string) {
			if _, same := agree(z, ur); !same {
				t.Fatalf("s=%v imax=%d: at ur=%v (%s) the table and math/rand's loop body disagree", s, imax, ur, what)
			}
		}
		r := float64(raw&math.MaxInt64) / (1 << 63)
		if r < 1 {
			check(z.hxm+r*z.hx0minusHxm, fmt.Sprintf("r=%v", r))
		}
		if len(z.tab) == 0 {
			return
		}
		pts := edges(z, int(raw%uint64(len(z.tab))))
		ur := pts[(raw>>32)%uint64(len(pts))]
		dir, steps := math.Inf(1), int(int8(raw>>40))
		if steps < 0 {
			dir, steps = math.Inf(-1), -steps
		}
		for i := 0; i < steps; i++ {
			ur = math.Nextafter(ur, dir)
		}
		check(ur, "near a tabulated value")
	})
}

// BenchmarkUint64 times one draw at drift.gcs's shape (n = 2048,
// s = 1.3) from the sampler and from rand.Zipf.
func BenchmarkUint64(b *testing.B) {
	z, err := New(rand.New(rand.NewSource(1)), 1.3, 2047)
	if err != nil {
		b.Fatal(err)
	}
	ref := rand.NewZipf(rand.New(rand.NewSource(1)), 1.3, 1, 2047)
	var sink uint64
	b.Run("sampler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += z.Uint64()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += ref.Uint64()
		}
	})
	benchSink = sink
}

// BenchmarkNew times building the tables at n = 2048 and n = 512.
func BenchmarkNew(b *testing.B) {
	for _, imax := range []uint64{2047, 511} {
		b.Run(fmt.Sprintf("n=%d", imax+1), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(rand.New(rand.NewSource(1)), 1.3, imax); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSink uint64
