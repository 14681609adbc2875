// Package bitset is the packed membership set of the policies and the
// Recorder: the layer membership of IBLP, its variants, BlockLRU and
// AdaptiveIBLP, GCM's marks, cachesim.Changes' per-block offset masks
// and the cachesim.Recorder's pristine items. At one bit per ID, a
// 256Ki-item universe costs 32KB, so membership probes stay in L1/L2
// where a byte- or word-per-item table would stride through megabytes.
// Has, Remove and Add's common case are small enough to inline at their
// call sites. Word, AddWord and RemoveWord read and write up to 64
// consecutive IDs at once, at any offset: under model.Fixed, IBLP and
// BlockLRU admit and drop a block as whole words instead of probing it
// item by item, and the Recorder marks each listed run of loaded items
// as one word. Grow extends the other ID-indexed tables — the probes',
// the autotuner's and AdaptiveIBLP's — under the same Limit.
package bitset

import "math/bits"

// Set is a packed membership set over the IDs [0, 64·len). Add grows it
// to cover a larger ID, through append's amortized growth, so a run
// whose IDs stay below n grows O(log n) times; Has and Remove treat an
// ID past the end as absent.
type Set []uint64

// Limit bounds the IDs a Set grows to hold: covering more would take
// over 256MB. Add panics for an ID ≥ Limit past the set's end.
const Limit = 1 << 31

// New returns an empty set presized for IDs [0, n).
func New(n int) Set { return make(Set, (n+63)>>6) }

// Grow returns s extended with zero values to cover index id, at least
// doubling its length, so a table indexed by IDs below n grows O(log n)
// times. It panics if id ≥ Limit. It is kept out of line so callers'
// hot paths stay small; they test id against len(s) first.
//
//go:noinline
func Grow[T any](s []T, id uint64) []T {
	if id >= Limit {
		panic("bitset: id at or past Limit")
	}
	grown := make([]T, max(2*len(s), int(id)+1)) //gclint:allowalloc amortized: each grow at least doubles, so IDs below n cost O(log n) grows per table
	copy(grown, s)
	return grown
}

// Has reports whether id is in the set.
//
//gclint:hotpath
func (s Set) Has(id uint64) bool {
	w := id >> 6
	return w < uint64(len(s)) && s[w]>>(id&63)&1 != 0
}

// Add inserts id, growing the set when id lies past its end. The growth
// is written inline, not as a call, so Add stays within the compiler's
// inlining budget.
//
//gclint:hotpath
func (s *Set) Add(id uint64) {
	if n := int(id>>6) + 1 - len(*s); n > 0 {
		if id >= Limit {
			panic("bitset: id at or past Limit")
		}
		*s = append(*s, make(Set, n)...) //gclint:allowalloc amortized: append grows capacity geometrically, so IDs below n cost O(log n) grows per set
	}
	(*s)[id>>6] |= 1 << (id & 63)
}

// Remove deletes id.
//
//gclint:hotpath
func (s Set) Remove(id uint64) {
	if w := id >> 6; w < uint64(len(s)) {
		s[w] &^= 1 << (id & 63)
	}
}

// Clear empties the set, keeping its storage.
func (s Set) Clear() { clear(s) }

// Mask returns a word with its low min(n, 64) bits set: the mask of
// the first word of a range of n IDs.
func Mask(n uint64) uint64 { return ^uint64(0) >> (64 - min(n, 64)) }

// Word returns the members among the IDs id+j for the set bits j of m,
// as a mask over the same j. The IDs may straddle two words; those past
// the end read absent.
//
//gclint:hotpath
func (s Set) Word(id, m uint64) uint64 {
	w, sh := id>>6, id&63
	var x uint64
	if w < uint64(len(s)) {
		x = s[w] >> sh
		if w+1 < uint64(len(s)) {
			x |= s[w+1] << (64 - sh)
		}
	}
	return x & m
}

// AddWord inserts the IDs id+j for the set bits j of m, growing the set
// as Add does.
//
//gclint:hotpath
func (s *Set) AddWord(id, m uint64) {
	if m == 0 {
		return
	}
	last := id + 63 - uint64(bits.LeadingZeros64(m))
	if n := int(last>>6) + 1 - len(*s); n > 0 {
		if last >= Limit {
			panic("bitset: id at or past Limit")
		}
		*s = append(*s, make(Set, n)...) //gclint:allowalloc amortized, as in Add
	}
	w, sh := id>>6, id&63
	(*s)[w] |= m << sh
	if hi := m >> (64 - sh); hi != 0 {
		(*s)[w+1] |= hi
	}
}

// RemoveWord deletes the IDs id+j for the set bits j of m; those past
// the end are ignored.
//
//gclint:hotpath
func (s Set) RemoveWord(id, m uint64) {
	if w, sh := id>>6, id&63; w < uint64(len(s)) {
		s[w] &^= m << sh
		if w+1 < uint64(len(s)) {
			s[w+1] &^= m >> (64 - sh)
		}
	}
}
