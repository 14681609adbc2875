// Package bitset is the packed membership set of the dense policy
// paths: IBLP's and GCM's bounded-universe representations in
// internal/core, the autotune shadow caches that must decide exactly
// as IBLP does, and cachesim.Changes' per-block offset masks. At one bit per ID, a 256Ki-item universe costs 32KB, so
// the per-sibling membership probes in admit/drop loops stay in L1/L2
// where a byte- or word-per-item table would stride through megabytes.
// Every method is small enough to inline at its call site.
package bitset

// Set is a packed membership set over the ID universe [0, 64·len).
type Set []uint64

// New returns an empty set covering IDs [0, n).
func New(n int) Set { return make(Set, (n+63)>>6) }

// Has reports whether id is in the set.
//
//gclint:hotpath
func (s Set) Has(id uint64) bool { return s[id>>6]>>(id&63)&1 != 0 }

// Add inserts id.
//
//gclint:hotpath
func (s Set) Add(id uint64) { s[id>>6] |= 1 << (id & 63) }

// Remove deletes id.
//
//gclint:hotpath
func (s Set) Remove(id uint64) { s[id>>6] &^= 1 << (id & 63) }

// Clear empties the set.
func (s Set) Clear() { clear(s) }
