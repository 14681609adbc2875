// Package bitset is the packed membership set of the policies and the
// Recorder: IBLP's and BlockLRU's layer membership, the Recorder's
// pristine items, the autotune shadow caches that must decide exactly
// as IBLP does, and cachesim.Changes' per-block offset masks. At one
// bit per ID, a 256Ki-item universe costs 32KB, so the per-sibling
// membership probes in admit/drop loops stay in L1/L2 where a byte- or
// word-per-item table would stride through megabytes. Has, Remove and
// Add's common case are small enough to inline at their call sites.
package bitset

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
