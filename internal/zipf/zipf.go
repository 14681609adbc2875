// Package zipf draws Zipf variates exactly as math/rand's Zipf does,
// deciding almost every draw from precomputed tables instead of
// evaluating an exp and a log for each candidate.
//
// rand.Zipf uses Hörmann and Derflinger's rejection-inversion. With
// h(x) = (1+x)^(1−q)/(1−q), each pass of its loop draws r from the
// Rand, forms ur = h(imax+½) + r·(h(½) − 1 − h(imax+½)), inverts
// x = h⁻¹(ur) and rounds k = ⌊x+½⌋. It accepts k when k − x ≤ s (a
// constant NewZipf computes) or when ur ≥ h(k+½) − (k+1)^(−q), and
// otherwise draws again. Because h is increasing, the pass is decided
// by where ur falls among per-k values: the boundaries h(k±½) fix k,
// the threshold h(k−s) settles the first test, and the second test's
// bound depends on k alone.
//
// A Sampler tabulates those values for the first k (at most maxHead
// of them) and finds ur's entry through a guide table over ur. It
// answers from the tables only when ur lies more than a relative
// guard from every boundary and threshold it compares against, so the
// rounding in math/rand's own evaluation cannot put ur on the other
// side; the second test's bound is stored exactly as math/rand
// computes it. Any other ur, past the tabulated head or near a
// boundary, is decided by math/rand's loop body itself. Every pass
// consumes one Float64 from the caller's Rand, as rand.Zipf's does, so
// the two draw the same variates from the same Rand, and reseeding the
// Rand restarts the stream. DESIGN.md's performance notes give the
// error bound the guard covers.
package zipf

import (
	"fmt"
	"math"
	"math/rand"
)

const (
	// maxHead caps the tabulated values of k at 0 … maxHead−1.
	maxHead = 4096
	// guideDensity is the number of guide cells per tabulated k.
	guideDensity = 2
	// guard is how near ur may come to a tabulated boundary or
	// threshold b, relative to |b|, before the pass is handed to
	// math/rand's computation.
	guard = 1e-9
	// maxLog bounds |(1−q)·ln(1+x)| at every tabulated x. It keeps the
	// tabulated values and every ur between them normal, and it keeps
	// the rounding error of math/rand's computation, relative to ur,
	// below 1e-12 (see DESIGN.md), far inside the guard. It also stops
	// the table at skews above about 1,000, whose first boundary
	// h(−½) = 2^(q−1)/(1−q) it excludes.
	maxLog = 700
	// v is NewZipf's v; every caller passes 1.
	v = 1.0
)

// Sampler generates values k ∈ [0, imax] with P(k) ∝ (1+k)^(−s): the
// variates rand.NewZipf(r, s, 1, imax) would draw from the same Rand.
type Sampler struct {
	r *rand.Rand
	// NewZipf's constants, computed by its expressions.
	q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64

	// A pass whose ur lies in (lo, hi) is looked up in tab, starting at
	// the entry guide holds for ur's cell int((ur−lo)·scale).
	lo, hi, scale float64
	guide         []int32
	tab           []entry
}

// entry holds the thresholds, in ur, that decide a pass whose candidate
// is the entry's k. A tabulated value b has the guard interval
// [b·(1+guard), b·(1−guard)] (b is negative); ur outside it lies
// clearly on one side of b.
type entry struct {
	up    float64 // ur above this lies clearly above h(k+½): the candidate is past k
	down  float64 // ur below this lies clearly below h(k+½)
	acc   float64 // ur above this lies clearly above h(k−s): k − x ≤ s holds
	rej   float64 // ur below this lies clearly below h(k−s): k − x ≤ s fails
	bound float64 // h(k+½) − (k+1)^(−q) exactly as math/rand computes it
}

// New returns a Sampler of k ∈ [0, imax] with P(k) ∝ (1+k)^(−s) that
// draws from r exactly as rand.NewZipf(r, s, 1, imax) does. It refuses
// a skew s that is not finite and greater than 1.
func New(r *rand.Rand, s float64, imax uint64) (*Sampler, error) {
	if !(s > 1) || math.IsInf(s, 1) {
		return nil, fmt.Errorf("zipf: skew %v is not finite and > 1", s)
	}
	z := &Sampler{r: r, q: s}
	// NewZipf's expressions, in its order, with v = 1.
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(v+1.0)))

	n := uint64(maxHead)
	if imax < n {
		n = imax + 1
	}
	z.tabulate(int(n))
	return z, nil
}

func (z *Sampler) h(x float64) float64 {
	hx, _ := z.at(x)
	return hx
}

// at returns NewZipf's h(x), computed by its expression, and whether the
// value is safe to tabulate: its exponent (1−q)·ln(1+x) is within
// maxLog.
func (z *Sampler) at(x float64) (hx float64, ok bool) {
	l := z.oneminusQ * math.Log(v+x)
	return math.Exp(l) * z.oneminusQinv, math.Abs(l) <= maxLog
}

func (z *Sampler) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - v
}

// tabulate builds the entries for k < n, stopping early at the first k
// whose boundary or threshold is not safe to tabulate (a skew past
// about 1,000, or an s that NewZipf's arithmetic made infinite or NaN,
// fails at k = 0) or whose upper boundary float64 cannot separate from
// its lower one by more than the two guards. With no entry, every pass
// runs math/rand's computation.
func (z *Sampler) tabulate(n int) {
	z.lo, z.hi = math.Inf(1), math.Inf(-1) // an empty range: (lo, hi) holds no ur
	below, ok := z.at(-0.5)
	if !ok {
		return
	}
	lo := math.Max(below*(1-guard), z.hxm+z.hx0minusHxm)
	tab := make([]entry, 0, n)
	for k := 0; k < n; k++ {
		fk := float64(k)
		b, okB := z.at(fk + 0.5)
		t, okT := z.at(fk - z.s)
		if !okB || !okT || !(below*(1-guard) < b*(1+guard)) {
			break
		}
		tab = append(tab, entry{
			up:    b * (1 - guard),
			down:  b * (1 + guard),
			acc:   t * (1 - guard),
			rej:   t * (1 + guard),
			bound: b - math.Exp(-math.Log(fk+v)*z.q), // b is h(k+½)
		})
		below = b
	}
	if len(tab) == 0 {
		return
	}
	hi := tab[len(tab)-1].down
	cells := guideDensity * len(tab)
	scale := float64(cells) / (hi - lo)
	if !(lo < hi) || math.IsInf(scale, 0) {
		return
	}
	z.lo, z.hi, z.scale, z.tab = lo, hi, scale, tab
	// guide[c] is the number of boundaries h(k+½), k < len(tab)−1,
	// whose upper guard edge lies below every ur of cell c: either below
	// lo, or in an earlier cell. cell is monotone in ur, so the edge is
	// below ur, and the pass's candidate is at least guide[c]. An edge in
	// a later cell lies above ur, so the candidate is at most
	// guide[c+1]. A ur in (lo, hi) falls in cell 0 … cells.
	z.guide = make([]int32, cells+2)
	k := 0
	for c := range z.guide {
		for k < len(tab)-1 && (tab[k].up <= lo || z.cell(tab[k].up) < c) {
			k++
		}
		z.guide[c] = int32(k)
	}
}

// cell returns the guide cell of ur ∈ (lo, hi).
func (z *Sampler) cell(ur float64) int { return int((ur - z.lo) * z.scale) }

// Uint64 returns the next variate.
//
//gclint:hotpath
func (z *Sampler) Uint64() uint64 {
	for {
		r := z.r.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		k, accept, done := z.table(ur)
		if !done {
			k, accept = z.exact(ur)
		}
		if accept {
			return k
		}
	}
}

// table decides a pass at ur from the tables: done reports whether it
// could, and if so, accept whether the pass returns its candidate k.
//
//gclint:hotpath
func (z *Sampler) table(ur float64) (k uint64, accept, done bool) {
	if !(ur > z.lo && ur < z.hi) {
		return 0, false, false
	}
	// The candidate is the first entry in [guide[c], guide[c+1]] with
	// ur ≤ up. Most cells span at most one boundary; a cell spanning
	// many (the narrow entries of a large k) is bisected to eight.
	c := z.cell(ur)
	i, j := z.guide[c], z.guide[c+1]
	for j-i > 8 {
		if m := int32(uint32(i+j) >> 1); ur > z.tab[m].up {
			i = m + 1
		} else {
			j = m
		}
	}
	for ur > z.tab[i].up {
		i++
	}
	e := &z.tab[i]
	switch {
	case ur >= e.down: // within h(k+½)'s guard
		return 0, false, false
	case ur > e.acc:
		return uint64(i), true, true
	case ur >= e.rej: // within h(k−s)'s guard
		return 0, false, false
	}
	return uint64(i), ur >= e.bound, true
}

// exact runs one pass of rand.Zipf's loop body at ur, with its
// expressions: the candidate k and whether it is accepted.
//
//gclint:hotpath
func (z *Sampler) exact(ur float64) (k uint64, accept bool) {
	x := z.hinv(ur)
	fk := math.Floor(x + 0.5)
	if fk-x <= z.s {
		return uint64(fk), true
	}
	if ur >= z.h(fk+0.5)-math.Exp(-math.Log(fk+v)*z.q) {
		return uint64(fk), true
	}
	return uint64(fk), false
}
