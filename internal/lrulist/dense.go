package lrulist

import (
	"fmt"
	"math"
)

// UintID constrains keys usable with Dense: unsigned 64-bit identifier
// types such as model.Item and model.Block.
type UintID interface{ ~uint64 }

// Order is the recency-ordering contract shared by List and Dense. The
// front is the MRU end; the back is the LRU end. Policies program against
// Order so that bounded-universe configurations can swap in the
// allocation-free Dense implementation without any behavioural change —
// the two implementations are differentially tested for identical
// eviction order.
type Order[K comparable] interface {
	Len() int
	Contains(k K) bool
	PushFront(k K) bool
	PushBack(k K) bool
	MoveToFront(k K) bool
	Remove(k K) bool
	Back() (K, bool)
	Front() (K, bool)
	PopBack() (K, bool)
	Each(fn func(K) bool)
	Keys() []K
	Clear()
}

var (
	_ Order[uint64] = (*List[uint64])(nil)
	_ Order[uint64] = (*Dense[uint64])(nil)
)

// Dense slots 0 and 1 are the head and tail sentinels; key k lives at
// slot k+2. A slot is absent exactly when its next link is 0 (no live
// node ever points at the head), so a zeroed link array is an empty list.
const (
	denseHead      = 0
	denseTail      = 1
	denseSentinels = 2
)

// denseLink is one doubly-linked-list node, addressed by slot index.
type denseLink struct{ prev, next int32 }

// Dense is a slice-backed intrusive LRU order over a bounded key universe
// [0, universe). It provides the same operations and ordering semantics
// as List but stores the linked list in two flat int32 arrays indexed by
// key, so the promote/evict path touches no map and never allocates.
//
// Keys must be < universe; operations on larger keys panic. Memory is
// 8 bytes per universe slot, so Dense suits the dense integer ID spaces
// produced by workload generators and trace files, not sparse universes.
type Dense[K UintID] struct {
	links []denseLink // slot = key + 2; sentinels at 0, 1
	count int
}

// MaxDenseUniverse is the largest key universe NewDense accepts. Beyond
// this, slot indices would overflow int32 (and the footprint would be
// unreasonable anyway); callers fall back to the generic List.
const MaxDenseUniverse = math.MaxInt32 - denseSentinels

// NewDense returns an empty dense order over keys [0, universe).
// It panics if universe is negative or exceeds MaxDenseUniverse.
func NewDense[K UintID](universe int) *Dense[K] {
	if universe < 0 || universe > MaxDenseUniverse {
		panic(fmt.Sprintf("lrulist: dense universe %d outside [0, %d]", universe, MaxDenseUniverse))
	}
	d := &Dense[K]{links: make([]denseLink, universe+denseSentinels)}
	d.links[denseHead].next = denseTail
	d.links[denseTail].prev = denseHead
	return d
}

// Universe returns the configured key bound.
func (d *Dense[K]) Universe() int { return len(d.links) - denseSentinels }

// slot maps a key to its link index, panicking on out-of-universe keys.
// The panic lives in a separate no-inline helper to keep slot small, yet
// slot (cost 81) and MoveToFront (153) still exceed the compiler's
// inlining budget of 80 (go1.24, -gcflags=-m=2). Contains, PopBack,
// Back and Front inline into their callers (Contains with a call to
// slot). A caller holding a *Dense rather than an Order calls the rest
// directly instead of through the interface, which is worth ~20% of the
// batched serving path.
//
//gclint:hotpath
func (d *Dense[K]) slot(k K) int32 {
	s := uint64(k) + denseSentinels
	if s >= uint64(len(d.links)) {
		d.badKey(k)
	}
	return int32(s)
}

//go:noinline
func (d *Dense[K]) badKey(k K) {
	panic(fmt.Sprintf("lrulist: key %d outside dense universe %d", uint64(k), d.Universe()))
}

// Len returns the number of keys in the list.
func (d *Dense[K]) Len() int { return d.count }

// Contains reports whether k is in the list.
//
//gclint:hotpath
func (d *Dense[K]) Contains(k K) bool { return d.links[d.slot(k)].next != 0 }

// PushFront inserts k at the MRU position. If k is already present it is
// promoted instead. It returns true if k was newly inserted.
//
//gclint:hotpath
func (d *Dense[K]) PushFront(k K) bool {
	s := d.slot(k)
	if d.links[s].next != 0 {
		d.unlink(s)
		d.linkFront(s)
		return false
	}
	d.linkFront(s)
	d.count++
	return true
}

// PushBack inserts k at the LRU position. If k is already present it is
// demoted to the LRU position. It returns true if k was newly inserted.
//
//gclint:hotpath
func (d *Dense[K]) PushBack(k K) bool {
	s := d.slot(k)
	if d.links[s].next != 0 {
		d.unlink(s)
		d.linkBack(s)
		return false
	}
	d.linkBack(s)
	d.count++
	return true
}

// MoveToFront promotes k to the MRU position. It reports whether k was
// present.
//
//gclint:hotpath
func (d *Dense[K]) MoveToFront(k K) bool {
	s := d.slot(k)
	if d.links[s].next == 0 {
		return false
	}
	d.unlink(s)
	d.linkFront(s)
	return true
}

// Remove deletes k and reports whether it was present.
//
//gclint:hotpath
func (d *Dense[K]) Remove(k K) bool {
	s := d.slot(k)
	if d.links[s].next == 0 {
		return false
	}
	d.unlink(s)
	d.links[s] = denseLink{}
	d.count--
	return true
}

// Back returns the LRU key. ok is false if the list is empty.
//
//gclint:hotpath
func (d *Dense[K]) Back() (k K, ok bool) {
	if d.count == 0 {
		return k, false
	}
	return K(d.links[denseTail].prev - denseSentinels), true
}

// Front returns the MRU key. ok is false if the list is empty.
//
//gclint:hotpath
func (d *Dense[K]) Front() (k K, ok bool) {
	if d.count == 0 {
		return k, false
	}
	return K(d.links[denseHead].next - denseSentinels), true
}

// PopBack removes and returns the LRU key. ok is false if the list is
// empty.
//
//gclint:hotpath
func (d *Dense[K]) PopBack() (k K, ok bool) {
	if d.count == 0 {
		return k, false
	}
	s := d.links[denseTail].prev
	d.unlink(s)
	d.links[s] = denseLink{}
	d.count--
	return K(s - denseSentinels), true
}

// Each calls fn for every key from MRU to LRU. fn must not mutate the
// list. Iteration stops early if fn returns false.
func (d *Dense[K]) Each(fn func(K) bool) {
	for s := d.links[denseHead].next; s != denseTail; s = d.links[s].next {
		if !fn(K(s - denseSentinels)) {
			return
		}
	}
}

// Keys returns all keys from MRU to LRU in a fresh slice.
func (d *Dense[K]) Keys() []K {
	out := make([]K, 0, d.count)
	d.Each(func(k K) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Clear removes every key. It walks only the occupied slots, so clearing
// is O(Len), not O(universe).
func (d *Dense[K]) Clear() {
	for s := d.links[denseHead].next; s != denseTail; {
		next := d.links[s].next
		d.links[s] = denseLink{}
		s = next
	}
	d.links[denseHead].next = denseTail
	d.links[denseTail].prev = denseHead
	d.count = 0
}

//gclint:hotpath
func (d *Dense[K]) linkFront(s int32) {
	first := d.links[denseHead].next
	d.links[s] = denseLink{prev: denseHead, next: first}
	d.links[first].prev = s
	d.links[denseHead].next = s
}

//gclint:hotpath
func (d *Dense[K]) linkBack(s int32) {
	last := d.links[denseTail].prev
	d.links[s] = denseLink{prev: last, next: denseTail}
	d.links[last].next = s
	d.links[denseTail].prev = s
}

//gclint:hotpath
func (d *Dense[K]) unlink(s int32) {
	l := d.links[s]
	d.links[l.prev].next = l.next
	d.links[l.next].prev = l.prev
}
